(** Interval abstract interpretation with rounding inflation.

    Evaluates the symbolic output terms of a target and rewrite over the
    spec's input ranges, widening every arithmetic result outward by one
    representable value *of the operation's precision* (binary32 ops widen
    on the binary32 grid) to absorb rounding error, and bounds the absolute
    difference between the two programs' outputs.  The bound is converted
    into "scaled ULPs" at the output's maximum magnitude.

    As the paper observes (§4, §6.1), this is only applicable to kernels
    without bit-level manipulation of floating-point representations —
    terms containing bitwise operations on symbolic data evaluate to ⊤ and
    the analysis reports failure — and even where it applies, the bound is
    far coarser than what MCMC validation finds (§6.3: 1363.5 static vs 5
    observed ULPs).  {!Taylor} supplies the tighter first-order bound. *)

type itv = {
  lo : float;
  hi : float;
}

val top : itv
val is_top : itv -> bool
val make : float -> float -> itv

type prec = Symbolic.prec =
  | P32
  | P64  (** the grid an operation's result is widened on *)

(** The interval operations, each written once, over a pair of
    [Float.Array] buffers holding the lower and upper endpoints of
    numbered slots.  [k lo hi d a b] reads slots [a] and [b] and writes
    slot [d], which may be [a] or [b]; no kernel allocates.  Arithmetic
    results are widened outward by one representable value of [prec]
    (⊤, the whole line, stays ⊤), and a NaN endpoint makes the result ⊤.
    The record operations below are wrappers over these. *)
module Kernel : sig
  type buf = Float.Array.t

  val add : prec -> buf -> buf -> int -> int -> int -> unit
  val sub : prec -> buf -> buf -> int -> int -> int -> unit
  val mul : prec -> buf -> buf -> int -> int -> int -> unit

  val div : prec -> buf -> buf -> int -> int -> int -> unit
  (** ⊤ when the divisor spans 0. *)

  val sqrt : prec -> buf -> buf -> int -> int -> unit
  (** ⊤ when the operand reaches below 0. *)

  val min : buf -> buf -> int -> int -> int -> unit
  val max : buf -> buf -> int -> int -> int -> unit
  (** Endpoint-wise and exact: no widening and no ⊤ rule. *)

  val hull : buf -> buf -> int -> int -> int -> unit

  val pow : buf -> buf -> int -> int -> int -> unit
  (** [pow lo hi d a k]: the [k]-th power ([k ≥ 1]) of slot [a], widened
      one binary64 step; an even power is non-negative. *)

  val widen : prec -> buf -> buf -> int -> unit
  (** One representable value outward, in place, ⊤ or not. *)

  val copy : buf -> buf -> int -> int -> unit
  (** [copy lo hi d a] *)

  val set_top : buf -> buf -> int -> unit
  val is_top : buf -> buf -> int -> bool
end

val add : itv -> itv -> itv
val sub : itv -> itv -> itv
val mul : itv -> itv -> itv
val div : itv -> itv -> itv
val sqrt_itv : itv -> itv
(** All widen outward by one representable double after the real interval
    computation. *)

val add32 : itv -> itv -> itv
val sub32 : itv -> itv -> itv
val mul32 : itv -> itv -> itv
val div32 : itv -> itv -> itv
val sqrt32 : itv -> itv
(** Binary32 counterparts: widen outward by one representable binary32
    value, the sound margin for f32-rounded hardware ops. *)

val hull : itv -> itv -> itv
val contains : itv -> float -> bool
val width : itv -> float

val mag : itv -> float
(** Largest absolute value in the interval. *)

val ulp_size_at : float -> single:bool -> float
(** Spacing of representable values at the given magnitude; the unit used
    to express absolute error bounds in scaled ULPs. *)

exception Not_analyzable of string

val env_of_spec : Sandbox.Spec.t -> string -> itv option
(** Input environment from a spec's declared ranges: [in%d] names for
    register float inputs, [base[offset]] names for memory cells reached
    through fixed pointer registers. *)

type analysis = {
  bound_ulps : float;  (** scaled-ULP bound on the output difference *)
  target_range : itv;
  rewrite_range : itv;
}

val static_ulp_bound :
  Sandbox.Spec.t -> Symbolic.pair -> (analysis, string) Stdlib.result
(** [Error] when an output depends on a bit-level operation or a
    conversion, on an input the spec leaves unconstrained, or differs
    without bound. *)

(** Symbolic execution with uninterpreted floating-point operations.

    Floating-point instructions become uninterpreted applications over
    bit-vector terms; data movement, shuffles, and constant logic are
    interpreted precisely.  Two programs whose live-out terms normalize to
    the same DAG are bit-wise equivalent for all inputs — the technique the
    paper uses (via Z3) to verify the dot-product rewrite of Figure 6.

    Commutative operations ([addss], [mulss], and the bitwise logicals) are
    normalized by argument sorting, which is sound for bit-wise equality up
    to NaN payload propagation.

    The executor is deliberately partial: instructions whose precise
    bit-level effect we cannot track (flag-dependent control, packed
    integer arithmetic on symbolic data, …) abort with [Error], mirroring
    the scaling limits of the decision procedures discussed in §4.

    This is the verifier's one front end: {!Verifier.check} executes each
    program once ({!exec_pair}), and the numeric tiers and the FPCore
    export read the float operations of those terms only through
    {!fold}. *)

type term =
  | Sym of string  (** a fresh 32-bit input cell *)
  | Cst of int64  (** constant bit pattern *)
  | App of string * term list

val term_to_string : term -> string

val normalize : term -> term
(** Sort arguments of commutative applications, fold pack/unpack pairs. *)

val equal_term : term -> term -> bool
(** Structural equality of normalized terms. *)

val exec : Sandbox.Spec.t -> Program.t -> (term array, string) result
(** Symbolic outputs (one per spec output) of running the program from the
    spec's symbolic initial state. *)

(** {1 One verification obligation} *)

type prec =
  | P32
  | P64  (** binary32 or binary64 *)

val output_prec : Sandbox.Spec.output -> prec

type pair = {
  target : term array;
  rewrite : term array;  (** normalized, one per spec output *)
  precs : prec array;  (** each output's width *)
}

val exec_pair : Sandbox.Spec.t -> rewrite:Program.t -> (pair, string) result
(** Both programs executed once; [Error] names the program ("target: …"
    or "rewrite: …") that leaves the supported fragment.  Every tier of
    {!Verifier.check} reads these same terms. *)

val same_output : pair -> int -> bool
(** Output [idx] is the same term in both programs. *)

val bitwise_equal : pair -> bool
(** Every output is: the rewrite is bit-wise equivalent to the target on
    every input (a [false] produces no counterexample). *)

val equivalent : Sandbox.Spec.t -> rewrite:Program.t -> (bool, string) result
(** {!exec_pair} then {!bitwise_equal}. *)

(** {1 The float operations}

    The terms' float arithmetic, decoded in one place.  A consumer gives
    the meaning of each operation at its width; {!fold} does the rest. *)

type op1 =
  | Sqrt  (** rounded at its width *)
  | Cvt
      (** to its width from the other one: exact to binary64, rounded to
          binary32 *)

type op2 =
  | Add
  | Sub
  | Mul
  | Div  (** rounded at their width *)
  | Min
  | Max  (** exact: the result is an operand *)

type 'a algebra = {
  input : string -> 'a;  (** a [Sym] input cell *)
  const : float -> 'a;  (** a constant, read at the width that consumes it *)
  op1 : op1 -> prec -> 'a -> 'a;
  op2 : op2 -> prec -> 'a -> 'a -> 'a;
}

exception Unsupported of string
(** A term outside the fragment a consumer can read. *)

val fold : 'a algebra -> prec -> term -> 'a
(** [fold alg p t] folds [t] bottom-up, operands left to right.  A
    constant's bits are read at the width of the operation consuming it,
    or at [p] when [t] itself is one (pass the output's width).
    @raise Unsupported on a bit-level operation or a wrong arity. *)

(** Kernel specification: the contract between a loop-free kernel and the
    machine — which locations are live-in (with the user-specified valid
    input ranges of Eq. 16), which are live-out (with their value types),
    and any fixed setup such as pointer arguments.

    The float-typed inputs form a vector that both random test-case
    generation (search) and Gaussian-perturbation proposals (validation)
    operate on; [testcase_of_floats] reassembles a {!Testcase.t} from such a
    vector. *)

type frange = {
  lo : float;
  hi : float;
}

(** A float-typed live-in location. *)
type float_input =
  | Fin_xmm_f64 of Reg.xmm * frange
  | Fin_xmm_f32 of Reg.xmm * frange
  | Fin_xmm_f32_hi of Reg.xmm * frange
      (** dword 1 of the register (bits 32–63), as in the paper's packed
          vector arguments *)
  | Fin_mem_f32 of int64 * frange  (** binary32 at an absolute address *)
  | Fin_mem_f64 of int64 * frange

(** Fixed (non-perturbed) setup. *)
type fixed_input =
  | Fix_gp of Reg.gp * int64
  | Fix_mem of int64 * string

type output =
  | Out_xmm_f64 of Reg.xmm
  | Out_xmm_f32 of Reg.xmm
  | Out_xmm_f32_hi of Reg.xmm
  | Out_gp of Reg.gp

type t = {
  name : string;
  program : Program.t;  (** the target *)
  float_inputs : float_input list;
  fixed_inputs : fixed_input list;
  outputs : output list;
  mem_size : int;
}

val make :
  name:string ->
  program:Program.t ->
  ?float_inputs:float_input list ->
  ?fixed_inputs:fixed_input list ->
  outputs:output list ->
  ?mem_size:int ->
  unit ->
  t

val arity : t -> int
(** Number of float inputs. *)

val input_ranges : t -> frange array

val testcase_of_floats : t -> float array -> Testcase.t
(** Raises [Invalid_argument] on an arity mismatch. *)

val fixed_testcase : t -> Testcase.t
(** The fixed inputs alone, as {!testcase_of_floats} installs them:
    before every float input. *)

type install_plan
(** Where each float input's bits go in one machine: a byte offset into
    its register file or its arena per input, with
    {!testcase_of_floats}'s layout resolved once — the f32/f32_hi
    merges, the f64 inputs it shadows, the order of overlapping memory
    inputs. *)

val install_plan : t -> Machine.t -> install_plan
(** The plan for this machine's arena (its base and size).  Raises
    [Invalid_argument] if a memory input lies outside the arena. *)

val install_floats : install_plan -> Machine.t -> float array -> unit
(** [install_floats plan m xs] stores [xs]'s bits where the plan says,
    marking the arena bytes it writes dirty, and allocates nothing.  On
    a machine that holds {!fixed_testcase} and whose xmm registers the
    float inputs name are zero, the result is the state [Testcase.apply
    (testcase_of_floats t xs)] leaves.  [xs] must have one float per
    float input; the caller checks the arity. *)

val random_floats : Rng.Xoshiro256.t -> t -> float array
(** Uniform draw from each input's range. *)

val random_testcase : Rng.Xoshiro256.t -> t -> Testcase.t

val live_out_set : t -> Liveness.Locset.t

val live_in_set : t -> Liveness.Locset.t
(** Locations the kernel's inputs define before the first instruction runs:
    the float-input registers, the fixed GP inputs, and [Lmem] if any input
    lives in memory.  (The environment additionally defines [rsp] — see
    [Analysis.Screen.env_of_spec].) *)

(** A live-out value read from a machine after execution. *)
type value =
  | Vf64 of float
  | Vf32 of float
  | Vi64 of int64

val read_outputs : t -> Machine.t -> value array

val value_ulp : value -> value -> Fpbits.Ulp.t
(** ULP distance between same-typed values (integer outputs use saturated
    absolute difference); mismatched constructors are a program error. *)

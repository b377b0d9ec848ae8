(** Engine-vs-interpreter differential runs.

    A {!t} fixes one engine and one set of cases: a pristine machine and
    the test cases laid over it.  {!check} runs a program on the
    interpreter ({!Sandbox.Exec.run}) and on the engine, each case from
    the same prepared state, and reports the first difference in outcome
    (fault kind and address included), executed count, cycles, GP
    registers, xmm registers, flags or memory.

    A batch engine ([Batched], [Native]) runs all the cases as lanes of
    one batch, which is what exercises per-lane fault parking, and is
    compared lane by lane through its [result] and [lane_machine]; one
    batch serves every program checked.  A scalar engine ([Compiled])
    runs each case on its own machine, restored from the pristine one
    and overlaid with the case, as the search does; after the last case
    the restored machine must equal the pristine one, or a write escaped
    the engine's dirty tracking.  The interpreter's reference machine is
    a fresh copy of the pristine one per case. *)

type t

val create :
  ?mem_size:int ->
  Sandbox.Exec.engine ->
  prepare:(Sandbox.Machine.t -> unit) ->
  Sandbox.Testcase.t array ->
  t
(** [create engine ~prepare cases]: the pristine machine has a
    [mem_size]-byte arena (default 4096) and is set up by [prepare].
    Raises [Invalid_argument] for [Interp] (the reference itself) and
    [Failure] if a native worker cannot start. *)

type verdict =
  | Same  (** every case bit-identical *)
  | Declined  (** [Native] would not run the program (it falls back) *)
  | Differs of { lane : int; what : string }
      (** the first difference, on the case at index [lane] *)

val check :
  ?on_reference:(int -> Sandbox.Machine.t -> unit) ->
  t ->
  Program.t ->
  verdict
(** [on_reference lane m] sees each case's interpreter machine after its
    run. *)

val ran : t -> int
(** Programs the engine itself ran (every {!check} but the declined). *)

val summary : t -> string
(** Which engine ran, and how many programs it ran and declined. *)

(** {2 Machine comparison} *)

type difference = {
  loc : Liveness.loc;
  part : string;  (** e.g. [rcx], [xmm1.hi], [pf], [mem[144]] *)
  left : int64;
  right : int64;
}

val differences : Sandbox.Machine.t -> Sandbox.Machine.t -> difference list
(** Every component where two machines differ, at the granularity of
    64-bit GP registers, 64-bit xmm halves, single flags and single
    memory bytes, in that order. *)

val first_difference :
  ?reference:string ->
  string ->
  Sandbox.Exec.result * Sandbox.Machine.t ->
  Sandbox.Exec.result * Sandbox.Machine.t ->
  string option
(** [first_difference name (r, m) (r', m')]: how engine [name]'s run
    [(r', m')] first differs from the [reference] run [(r, m)] (default
    ["interp"]) — outcome, executed, cycles, then {!differences} — or
    [None] when they are bit-identical.  What {!check} reports. *)

val outcome_equal : Sandbox.Exec.outcome -> Sandbox.Exec.outcome -> bool
(** Fault kinds compared with {!Sandbox.Semantics.equal_fault}. *)

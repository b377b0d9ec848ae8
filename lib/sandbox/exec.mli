(** Program execution: run a loop-free program on a machine, collecting the
    outcome and the cycle count under the static latency model. *)

type outcome =
  | Finished
  | Faulted of Semantics.fault

(** Which execution engine evaluates proposals.  [Interp] steps
    {!Semantics.step} over the program on every run — the reference.
    [Compiled] translates the program once into specialized closures
    ({!Compiled.compile}) and replays them per test case.  [Batched]
    ({!Batched}) also translates once, but runs {e all} test cases
    through each instruction before advancing to the next, over
    struct-of-arrays register planes.  [Native] ({!Native}) encodes the
    program into real x86-64 machine code and runs it in a guarded
    worker child process, falling back to [Batched] per proposal for
    forms the encoder can't emit natively.  All four are bit-identical;
    [Compiled] is the default everywhere, [Interp] the oracle the others
    are differentially tested against.  Callers run programs through
    {!Engine}, which maps each constructor to its engine instance. *)
type engine =
  | Interp
  | Compiled
  | Batched
  | Native

val engine_names : string list
(** Valid spellings for {!engine_of_string}, in declaration order. *)

val engine_to_string : engine -> string

val engine_of_string : string -> (engine, string) result
(** [Error msg] names the rejected spelling and lists the valid ones. *)

type result = {
  outcome : outcome;
  cycles : int;  (** sum of per-instruction latencies actually executed *)
  executed : int;  (** number of instructions executed *)
}

(** Process-wide execution counters for telemetry, disabled by default.

    When disabled the only cost on the hot path is one atomic load per
    {!run}; when enabled, every run adds its cycle and instruction
    totals with atomic fetch-and-add, so the counters stay exact across
    the parallel search's domains.  They measure interpreter work — the
    denominator of evaluations/sec — not rewrite quality. *)
module Counters : sig
  type snapshot = {
    runs : int;  (** programs executed (≈ cost evaluations × test cases) *)
    instrs : int;  (** instructions stepped *)
    cycles : int;  (** static-latency cycles accumulated *)
    faults : int;  (** runs that ended in a fault *)
  }

  val enable : unit -> unit
  val disable : unit -> unit
  val is_enabled : unit -> bool
  val reset : unit -> unit
  val snapshot : unit -> snapshot

  val record : run_cycles:int -> run_instrs:int -> faulted:bool -> unit
  (** Add one run's totals.  {!run} calls this itself; it is exposed so
      {!Compiled.exec} feeds the same counters. *)
end

val run : Machine.t -> Program.t -> result
(** Executes the active slots in order, mutating the machine.  Stops at the
    first fault. *)

val run_testcase :
  mem_size:int -> Program.t -> Testcase.t -> Machine.t * result
(** Fresh machine, install the test case, run.  [mem_size] is mandatory —
    pass the spec's arena size ({!Spec.t.mem_size}) so ad-hoc runs see the
    same address-space bounds as the search.  Convenient, but allocates;
    hot loops should reuse machines via {!run} and
    {!Machine.restore_from}. *)

val outcome_is_signal : outcome -> bool

val outcome_to_string : outcome -> string

(** The engine seam: one interface over the four bit-identical execution
    engines ({!Exec.run}, {!Compiled}, {!Batched}, {!Native}).

    Search and validation only need to run a program on test inputs.  An
    engine instance (a module of type {!S}) prepares a program once and
    then runs it in one of two ways:

    - {b lane-wise} over a fixed test set ({!lanes}), handing each test's
      outputs to a per-lane callback in the caller's order so the caller
      can stop early — what the search's cost function scores proposals
      with;
    - {b one call at a time} on a caller's machine ({!caller}), with state
      threaded in and out — what the validator, the kernel runner and the
      taint oracle use.

    Callers pick an instance once ({!of_engine}) and never match on the
    engine constructors themselves.

    {b The fallback rule.}  An instance may decline a program ([None]
    from [prepare]) or crash mid-run ([None] from [run]/[call]); the
    wrappers below then run that program — or re-run the in-flight call —
    on [Batched], which never declines.  Only [Native] uses this: it
    declines programs the encoder cannot emit bit-identically (and every
    program when native execution is unavailable), and crashes when its
    worker dies.  Since all engines are bit-identical, a fallback changes
    only the counters, never a result. *)

(** Work done by one lane-wise context, for telemetry. *)
type counters = {
  prepares : int;  (** programs translated for reuse (0 under [Interp],
                       which interprets afresh every run) *)
  runs : int;  (** test-case runs completed by the selected engine *)
  fallbacks : int;
      (** test-case runs completed by the [Batched] fallback instead;
          [runs + fallbacks] is every run the context executed *)
  respawns : int;  (** native workers respawned after a crash or timeout *)
}

val zero : counters
val add : counters -> counters -> counters

val sub : counters -> counters -> counters
(** Field-wise difference, for anchoring a reused context's counters. *)

(** How a lane-wise run ended. *)
type stop =
  | Completed  (** every lane was handed to the callback *)
  | Stopped of int
      (** the callback asked to stop at this position of [order] *)
  | Aborted
      (** a faulting lane satisfied [diverges] before any lane was
          scored (whole-batch engines only) *)

type outcome = {
  stop : stop;
  runs : int;  (** test cases executed — a whole-batch engine runs every
                   lane even when the callback stops early *)
}

module type S = sig
  val engine : Exec.engine
  val available : unit -> bool

  val translates : bool
  (** [prepare] translates the program once for all its runs — every
      engine but the interpreter.  Counted in [prepares]. *)

  type lanes
  (** A fixed test set, with whatever per-set state the engine keeps
      (lane planes, a worker process). *)

  val lanes : Spec.t -> Testcase.t array -> lanes

  type prog

  val prepare : lanes -> Program.t -> prog option
  (** [None]: this engine cannot run the program. *)

  val run :
    prog ->
    order:int array ->
    diverges:(int -> bool) ->
    (int -> Spec.value array option -> bool) ->
    outcome option
  (** Run every test and call back [f lane outputs] ([None] when the run
      faulted) in [order], stopping as soon as [f] returns [true].  An
      engine that runs all lanes before scoring may instead return
      [Aborted] as soon as a faulting lane satisfies [diverges].  [None]:
      the engine crashed before calling back. *)

  val respawns : lanes -> int

  type caller
  (** Per-caller state for call-at-a-time runs on machines with the
      template's arena. *)

  val caller : Machine.t -> caller

  type call

  val prepare_call : caller -> Machine.t -> Program.t -> call option
  (** Bind a program to a machine; [None]: this engine cannot run it. *)

  val call : call -> Exec.result option
  (** Run on the bound machine's current state, leaving it exactly as
      {!Exec.run} would.  [None]: the engine crashed and the machine is
      untouched. *)
end

type t = (module S)

val all : Exec.engine list
(** Every engine, in declaration order.  Filter with {!available}. *)

val of_engine : Exec.engine -> t
val available : Exec.engine -> bool
val engine : t -> Exec.engine

(** {2 Lane-wise runs, with the fallback rule and counters} *)

type lanes
type prepared

val lanes : t -> Spec.t -> Testcase.t array -> lanes

val prepare : lanes -> Program.t -> prepared
(** The program must not be mutated while [prepared] is in use, and
    [prepared] is valid only until the next [prepare] on the same
    [lanes] ([Compiled] prepares in place, see {!Compiled.prepare}):
    run it before preparing another program. *)

val run :
  prepared ->
  order:int array ->
  diverges:(int -> bool) ->
  (int -> Spec.value array option -> bool) ->
  outcome
(** {!S.run}, re-run on [Batched] if the engine crashed. *)

val counters : lanes -> counters

(** {2 Call-at-a-time runs, with the fallback rule} *)

type caller
type call

val caller : t -> Machine.t -> caller
(** [caller e template]: machines later passed to {!prepare_call} must
    have [template]'s arena size and base. *)

val prepare_call : caller -> Machine.t -> Program.t -> call
val call : call -> Exec.result

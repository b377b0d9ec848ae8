(** The engine seam: one interface over the four bit-identical execution
    engines ({!Exec.run}, {!Compiled}, {!Batched}, {!Native}).

    Search and validation only need to run a program on test inputs.  An
    engine instance (a module of type {!S}) prepares a program once and
    then runs it in one of two ways:

    - {b lane-wise} over a fixed test set ({!lanes}), handing each test's
      final register file to a per-lane callback ({!score}) in the
      caller's order so the caller can stop early — what the search's
      cost function scores proposals with;
    - {b one call at a time} on a caller's machine ({!caller}), with state
      threaded in and out — what the validator, the kernel runner and the
      taint oracle use.

    Callers pick an instance once ({!of_engine}) and never match on the
    engine constructors themselves.

    {b The fallback rule.}  An instance may decline a program ([false]
    from [prepare] or [None] from [prepare_call]) or crash mid-run ([None] from [run]/[call]); the
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

type score = int -> bool -> Bytes.t -> bool
(** The lane callback: [f lane finished regs] is called once per scored
    test, where [finished] says whether the run finished (rather than
    faulted) and [regs] holds the lane's final register file in
    {!Machine.regs} layout — at least at the spec's outputs; it is
    [true] to stop.  [regs] is a buffer the engine owns, valid during
    the call only:
    - the scalar engines (interp, compiled) pass their machine's own
      register file;
    - Native passes its readout buffer after copying the lane's
      registers in ({!Native.lane_regs});
    - Batched copies the lane's output quads into one scratch buffer per
      lane set ({!Batched.blit_outputs}).
    A finishing lane's callback is the only place its outputs are read,
    so a caller scoring raw bits allocates nothing per test. *)

module type S = sig
  val engine : Exec.engine
  val available : unit -> bool

  val translates : bool
  (** [prepare] translates the program once for all its runs — every
      engine but the interpreter.  Counted in [prepares]. *)

  type lanes
  (** A fixed test set, with whatever per-set state the engine keeps
      (lane planes, a worker process) and the program last prepared. *)

  val lanes : Spec.t -> Testcase.t array -> lanes

  val table : lanes -> Facts.t
  (** The lane set's slot table, which the caller keeps describing the
      program it prepares: the compiled engine's translates each entry
      for the lane set's machine ({!Compiled.memo}); the others read
      none of it. *)

  val prepare : lanes -> Program.t -> bool
  (** Make [p], which {!table} describes, the program the next {!run}s
      execute: the compiled engine runs the table's dense steps, the
      others translate [p] or run it as it is.  [false]: this engine
      cannot run the program. *)

  val run :
    lanes -> order:int array -> diverges:(int -> bool) -> score -> outcome option
  (** Run every test and call back in [order], stopping as soon as the
      callback returns [true].  An engine that runs all lanes before
      scoring may instead return [Aborted] as soon as a faulting lane
      satisfies [diverges].  [None]: the engine crashed before calling
      back. *)

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

  val finished : call -> bool option
  (** {!call}, saying only whether the run finished: the compiled
      engine's allocates nothing. *)
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

val table : lanes -> Facts.t
(** {!S.table}: the search's cost context keeps it current with the
    moves it makes ({!Facts.move}); other callers {!Facts.refresh} it
    with the program before each prepare.  Only the compiled engine
    reads it, so a caller that knows its engine is another (the
    reference interpreter of [Search.Cost.create]) may leave it
    empty. *)

val prepare : lanes -> Program.t -> prepared
(** Prepare [p], which the lane set's {!table} describes.  The program
    and the table must not change while [prepared] is in use, and
    [prepared] is valid only until the next prepare on the same
    [lanes]: run it before preparing another program.  It allocates
    nothing past what the engine's own translation does. *)

val run :
  prepared ->
  order:int array ->
  diverges:(int -> bool) ->
  score ->
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

val finished : call -> bool
(** {!call}, saying only whether the run finished rather than faulted.
    On the compiled engine a run that needs no fallback allocates
    nothing, where {!call} allocates its result. *)

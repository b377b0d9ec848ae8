(** Batched (struct-of-arrays) execution engine.

    Where {!Compiled} replays a compiled trace once per test case,
    [Batched] runs {e every} test case through each instruction before
    advancing to the next.  A {!batch} holds N lanes — one per test case
    — as struct-of-arrays register planes (register r's value for lane l
    lives at quad offset [r * n + l] of a single [Bytes.t]), a per-lane
    flags record, and a per-lane memory arena.  Pristine-plus-testcase
    state is baked into image planes at {!create_batch}, so {!reset}
    restores all N lanes with two blits, a flag restore, and one
    O(bytes-written) {!Memory.restore_from} per lane.

    A lane that faults {e parks}: its fault, executed count and cycle
    count are latched and the remaining lanes proceed.  {!exec}'s
    [on_fault] hook fires as each lane parks so the caller can abort the
    whole batch mid-run — the search uses this to lift the
    early-termination cutoff to batch granularity (see {!Cost}).

    Guarantee: for any program and any lane state, running a lane to
    completion (or to its fault) leaves that lane's registers, memory
    and flags in exactly the state {!Exec.run} would, and latches the
    same fault, executed count and cycle count — bit-identical, so
    fixed-seed searches produce the same winner under all three engines.
    Opcodes without a specialized translation are executed through
    {!Semantics.step} on the lane's scratch machine. *)

exception Abort
(** Raised internally when [on_fault] requests an abort; never escapes
    {!exec}. *)

type batch
(** N test-case lanes plus their baked pristine images.  Create once per
    (pristine machine × test set); reuse across proposals. *)

type t
(** A program compiled against a batch. *)

val create_batch : Machine.t -> Testcase.t array -> batch
(** [create_batch pristine tests] bakes [Testcase.apply tests.(l)] over
    a copy of [pristine] into lane [l]'s image.  The batch starts in the
    reset state.  Raises [Invalid_argument] on an empty test array. *)

val lane_count : batch -> int

val reset : batch -> unit
(** Restore every lane to its baked pristine+testcase image and mark all
    lanes live.  Call before each {!exec}. *)

val apply_testcase : batch -> lane:int -> Testcase.t -> unit
(** Overlay a test case onto one lane's current state (registers and
    memory), for callers that pick inputs per run rather than baking
    them — e.g. the validator's random sampling.  Use after {!reset}. *)

val compile : batch -> Program.t -> t
(** Translate [p]'s active slots into lane-wise closures over the batch.
    O(program length); performs all operand matching so {!exec} does
    none. *)

val length : t -> int
(** Number of active (compiled) instructions. *)

val exec : ?on_fault:(lane:int -> Semantics.fault -> bool) -> t -> bool
(** Run all live lanes through the compiled trace, one instruction at a
    time across the batch.  [on_fault] is called at the moment a lane
    parks (its results already latched); returning [true] aborts the
    remaining work and makes [exec] return [true].  Without an abort,
    returns [false] and every lane's result is latched.  Feeds
    {!Exec.Counters} once per lane when enabled. *)

val fault : batch -> lane:int -> Semantics.fault option
(** The lane's latched fault, or [None] if it finished. *)

val result : batch -> lane:int -> Exec.result
(** The lane's latched outcome/cycles/executed triple, bit-identical to
    what {!Exec.run} would return for that lane's test case.  Only
    meaningful after a non-aborted {!exec}. *)

val blit_outputs : batch -> lane:int -> Spec.t -> Bytes.t -> unit
(** Copy the register quad behind each of the spec's outputs from the
    lane's planes into the buffer, at its {!Machine.regs} offset: the
    buffer then reads, at every output, as the register file of the
    equivalent machine would. *)

val lane_machine : batch -> lane:int -> Machine.t
(** A machine view of one lane: registers synced from the planes into
    the lane's scratch machine, whose flags and memory {e are} the
    lane's own.  For differential tests; the view is invalidated by the
    next [exec]/[reset] and writes to its register arrays are not
    written back. *)

val run_one : t -> Machine.t -> Exec.result
(** Call-at-a-time use of a one-lane batch: load lane 0 from [m]
    (registers, flags and the whole arena), run, and write the lane's
    final state back into [m] — leaving [m] exactly as {!Exec.run} would.
    [m]'s arena must match the batch's.  Raises [Invalid_argument] on a
    batch of more than one lane. *)

(** Native execution engine: candidates JIT-encoded with {!X86.Encoder}
    and run as real machine code inside a guarded worker child process.

    A {!batch} forks one long-lived worker and maps a shared-memory
    region between parent and child.  {!compile} wraps each proposal's
    encoding in a trampoline — load the lane's registers and flags from
    a fixed state page, run the candidate body with a software bounds /
    alignment guard before every memory access, spill everything back —
    and {!exec} ships the bytes plus all lanes through the worker in a
    single request.  The child executes from a read-execute view of the
    shared pages (per-process W^X) with SIGSEGV/SIGBUS/SIGFPE/SIGILL
    handlers, and the parent enforces a deadline and transparently
    respawns a crashed worker.

    Bit-identity: {!compile} returns [None] — and the caller falls back
    to {!Batched} — for any program containing an instruction whose
    hardware behaviour is not bit-identical to {!Semantics.step} (or
    that {!X86.Encoder} cannot emit).  For the accepted subset, guard
    faults reproduce the interpreter's fault kind, address and position
    exactly, so finished lanes and faulting lanes alike are
    bit-identical to {!Exec.run}. *)

val available : unit -> bool
(** Whether this process can create workers at all: mmap-exec of shared
    anonymous memory is permitted and the fixed low state-page address
    is free.  Cached after the first call. *)

val native_instr : Instr.t -> bool
(** Whether the instruction's hardware semantics are bit-identical to
    the interpreter's (and encodable).  Programs with any non-native
    instruction must run on a fallback engine. *)

type batch
(** A worker process plus N baked test-case lanes.  Create once per
    (pristine machine × test set); reuse across proposals. *)

type t
(** A program encoded against a batch. *)

val create_batch :
  ?want_mem:bool -> Machine.t -> Testcase.t array -> batch option
(** [create_batch pristine tests] bakes [Testcase.apply tests.(l)] over
    a copy of [pristine] into lane [l], forks the worker, and ships the
    lane images.  [want_mem] (default false) makes every {!exec} copy
    each lane's final arena back, for callers that read memory state.
    [None] when native execution is unavailable or the arena's
    [base + size] exceeds the trampoline's 2 GiB addressing limit.
    Raises [Invalid_argument] on an empty test array. *)

val lane_count : batch -> int

val reset : batch -> unit
(** Restore lanes touched by {!apply_testcase} to their baked images. *)

val apply_testcase : batch -> lane:int -> Testcase.t -> unit
(** Overlay a test case onto one lane's current state, as
    {!Batched.apply_testcase}. *)

val compile : batch -> Program.t -> t option
(** Encode the trampoline for [p], or [None] if any active instruction
    fails {!native_instr}.  O(program length). *)

val length : t -> int
(** Number of active (encoded) instructions. *)

val code : t -> string
(** The raw trampoline bytes, for inspection ([stoke encode]). *)

val exec : t -> bool
(** Run every lane through the worker.  Returns [true] when the worker
    crashed or hung (it has been respawned; every lane of this run
    reports a crash fault), [false] on a normal run — faulting lanes
    report per-lane via {!fault}. *)

val fault : batch -> lane:int -> Semantics.fault option

val result : batch -> lane:int -> Exec.result
(** The lane's outcome/cycles/executed triple, bit-identical to
    {!Exec.run} on that lane's inputs. *)

val lane_regs : batch -> lane:int -> Bytes.t
(** One lane's post-run register file, in {!Machine.regs} layout, copied
    into a buffer the batch owns: valid until the next call. *)

val lane_machine : batch -> lane:int -> Machine.t
(** A machine holding one lane's post-run registers, flags and (when the
    batch was created with [~want_mem:true]) memory.  For differential
    tests; invalidated by the next [exec]/[reset].  Raises if the batch
    lacks [want_mem]. *)

val run_one : batch -> t -> Machine.t -> Exec.result option
(** One-lane convenience for the kernel runner: load lane 0 from [m]
    (registers, flags and full memory image), run, and write the
    results — including memory — back into [m].  [None] when the worker
    crashed or the run hit a hardware fault the guards did not predict —
    divergent cases the caller must re-run on a fallback engine ([m] is
    untouched).  The batch must have been created with
    [~want_mem:true]. *)

val respawns : batch -> int
(** Worker respawns since {!create_batch} (crashes and timeouts). *)

(** Compile-once execution engine.

    {!compile} translates a program into an array of closures specialized
    against one machine: operands resolved to register-file byte offsets,
    immediates pre-extended, effective-address code picked per addressing
    mode, [Unused] slots elided, latencies prefix-summed.  {!exec} then
    replays the closures — the per-proposal translation cost is paid once
    and amortized over every test case the search evaluates it on.

    Guarantee: for any program and any starting machine state, {!exec}
    leaves the machine in exactly the state {!Exec.run} would (registers,
    memory, flags), and returns the same outcome, fault, cycle count and
    executed count — bit-identical, so fixed-seed searches produce the
    same winner under either engine.  Opcodes without a specialized
    translation are executed through {!Semantics.step} itself.

    The operand shapes of the built-in kernels, and the other register,
    immediate and [base+disp] forms of the same opcodes, translate to
    flat closures that box no [int64] or [float]: a kernel run
    allocates only its {!Exec.result}.

    A compiled program is bound to the machine it was compiled against;
    running it mutates that machine only.  Reset state between runs with
    {!Machine.restore_from}. *)

type t

val compile : Machine.t -> Program.t -> t
(** Translate [p]'s active slots into closures over [m].  O(program
    length); performs all operand matching so {!exec} does none.  The
    same loop as {!prepare}, through a fresh memo. *)

type memo
(** Per-slot translations of the programs last prepared on one machine.
    A slot keeps its closure and latency while it holds the very
    instruction ({e physically}) it translated last time, so preparing a
    proposal that changed one or two slots of the previous program
    translates only those.  Sound because instructions are never mutated
    in place (see {!X86.Instr}). *)

val memo : Machine.t -> memo
(** An empty memo bound to [m]; its arrays are sized on first use. *)

val prepare : memo -> Program.t -> t
(** [prepare memo p] is [compile m p] for the memo's machine [m],
    translating only the slots whose instruction changed since the
    memo's previous [prepare].  Each result has arrays of its own, so an
    earlier result stays valid. *)

val length : t -> int
(** Number of active (compiled) instructions. *)

val exec : t -> Exec.result
(** Run the compiled trace on its machine, stopping at the first fault.
    Feeds {!Exec.Counters} when enabled, like {!Exec.run}. *)

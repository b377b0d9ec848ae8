(** Compile-once execution engine.

    {!compile} translates a program into an array of closures specialized
    against one machine: operands resolved to register-file byte offsets,
    immediates pre-extended, effective-address code picked per addressing
    mode, one closure per slot (under {!prepare}, an [Unused] slot runs a
    no-op; {!compile} drops it), latencies and active counts prefix-summed
    per slot.  {!exec} then replays the closures — the per-proposal
    translation cost is paid once and amortized over every test case the
    search evaluates it on.

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
    same loop as {!prepare}, through a fresh memo without a translation
    cache, over [p] with its [Unused] slots dropped. *)

type memo
(** The slot-indexed translation of the program last prepared on one
    machine: per slot the slot value it holds, its closure and latency,
    and the prefix sums {!exec} reads its cycle and executed counts from.
    A prepare writes only the slots whose value changed {e physically}
    since the previous prepare — sound because slot values are immutable
    and instructions are never mutated in place (see {!X86.Instr}) — and
    redoes the prefix sums from the first changed slot on.  A changed slot's closure comes
    from a bounded direct-mapped cache keyed by {!X86.Instr.hash} and
    verified with {!X86.Instr.equal}, so an instruction equal to one
    translated recently (the one an undo restores) is not translated
    again. *)

val memo : Machine.t -> memo
(** An empty memo bound to [m]; its slot arrays are sized on first use. *)

val prepare : memo -> Program.t -> t
(** [prepare memo p] behaves as [compile m p] for the memo's machine [m],
    updating the memo in place.  It allocates only its result, which
    shares the memo's arrays: a prepared program is valid until the next
    [prepare] on the same memo, so run it before preparing another. *)

val exec : t -> Exec.result
(** Run the compiled trace on its machine, stopping at the first fault.
    Feeds {!Exec.Counters} when enabled, like {!Exec.run}. *)

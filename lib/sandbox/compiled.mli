(** Compile-once execution engine.

    {!compile} translates a program into an array of closures specialized
    against one machine: operands resolved to register-file byte offsets,
    immediates pre-extended, effective-address code picked per addressing
    mode, one closure per {e active} slot.  {!exec} then replays the
    closures — the per-proposal translation cost is paid once and
    amortized over every test case the search evaluates it on.

    Guarantee: for any program and any starting machine state, {!exec}
    leaves the machine in exactly the state {!Exec.run} would (registers,
    memory, flags), and returns the same outcome, fault, cycle count and
    executed count — bit-identical, so fixed-seed searches produce the
    same winner under either engine.  Opcodes without a specialized
    translation are executed through {!Semantics.step} itself.

    The operand shapes of the built-in kernels, and the other register,
    immediate and [base+disp] forms of the same opcodes, translate to
    flat closures that box no [int64] or [float]: a kernel run through
    {!run} allocates nothing, and through {!exec} only its
    {!Exec.result}.

    A compiled program is bound to the machine it was compiled against;
    running it mutates that machine only.  Reset state between runs with
    {!Machine.restore_from}. *)

type t

val compile : Machine.t -> Program.t -> t
(** Translate [p]'s active slots into closures over [m].  O(program
    length); performs all operand matching so {!exec} does none. *)

type memo
(** A translator bound to one machine, for programs that change a slot
    at a time: a slot table ({!X86.Facts}) whose entries are translated
    for the machine when they are derived.  The table keeps its active
    slots' closures densely and is updated only at the slots a move
    changed, so a prepare copies four fields.  An entry comes from the
    table's bounded direct-mapped cache keyed by {!X86.Instr.hash} and
    verified with {!X86.Instr.equal}, so an instruction equal to one
    translated recently (the one an undo restores) is not translated
    again. *)

val memo : Machine.t -> memo
(** A translator for [m], with an empty table. *)

val table : memo -> X86.Facts.t
(** The memo's table.  The caller keeps it describing the program to
    prepare: {!X86.Facts.refresh}, or the moves that made it. *)

val prepare : memo -> t
(** [prepare memo] behaves as [compile m p] for the memo's machine [m]
    and the program [p] its table describes.  It returns the memo's one
    prepared program, which reads the table's arrays: it is valid until
    the next prepare on the same memo or the next update of the table,
    so run it first.  It allocates nothing. *)

val exec : t -> Exec.result
(** Run the compiled trace on its machine, stopping at the first fault.
    A faulting run's cycle count walks the latencies of the steps it
    started.  Feeds {!Exec.Counters} when enabled, like {!Exec.run}. *)

val run : t -> bool
(** {!exec}, reporting only whether the run finished; a finishing run
    allocates nothing. *)

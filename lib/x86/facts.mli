(** The search's slot table: one entry per slot of the program it
    describes, holding everything the inner loop reads about that slot —
    its key term, latency ({!Latency.of_instr}), {!Liveness.defs},
    {!Liveness.strict_uses}, {!Liveness.uses}, {!Liveness.kills}, whether
    it can fault ({!Liveness.cannot_fault}) and its translated step (see
    {!create}).  One table serves the
    cost-cache key, the [Sum_latency] perf term, the undef-read screen,
    the dead-write elision and the compiled engine's step array.

    {b Keeping it current.}  A table describes the program it was last
    given, physically.  Two ways keep it so:
    - {!refresh} walks every slot and updates those whose value differs
      {e physically} from the one its entry was made for — instructions
      are never mutated in place (see {!Instr}), so that is sound.  A
      [Program.copy], or a program re-parsed into new instruction values,
      is still described exactly.
    - {!move} and {!swap} are told which slots a move changed: they
      journal those slots' entries and update only them, with no walk;
      {!revert}, after the move's undo, puts the journaled entries back
      without a lookup.  If the table no longer describes the program
      (another program was refreshed since), each of them walks instead.

    An updated slot takes its entry from a bounded direct-mapped cache
    keyed by {!Instr.hash} and verified with {!Instr.equal}, so an
    instruction equal to a recently seen one is neither derived nor
    translated again.  The cache is made by the first refresh.

    {b Dense order.}  The table also keeps its active slots densely, in
    program order: {!order} holds the first {!active} entries' slot
    indices, and {!steps} and {!step_latencies} their translated steps
    and latencies, so a run executes no step for an [Unused] slot and
    the search draws the [k]-th active slot with one read
    ([Search.Transform.propose ~facts]).  Changing an active slot
    replaces its dense step and latency in place; only an [Unused] <->
    active toggle shifts the dense tail, by plain loops over the int
    arrays ([order], the latencies, the positions) and one blit of the
    steps, the only pointer array shifted.

    The readers are O(1) ({!key}, {!latency}, {!order}) or walk the
    active slots only ({!has_undef_read}, and {!dead_write} over the
    slots after the one it asks about).  [latency m = Latency.of_program p] for the
    program [p] it describes.

    A table is mutable and unsynchronised: one per search context
    ([Search.Cost.t]), never shared across domains. *)

type t

val create : ?translate:(Instr.t -> unit -> unit) -> unit -> t
(** An empty table; the first refresh derives every slot.  Each entry's
    step is [translate instr], made when the entry is derived — a table
    a compiled engine runs translates for its machine
    ([Sandbox.Compiled.memo]).  Without [translate] every step does
    nothing, and only the other facts are read. *)

val refresh : t -> Program.t -> unit
(** Make the table describe the program's current slots, by a walk. *)

val move : t -> Program.t -> int -> unit
(** [move m p k]: [p] is the program [m] describes with slot [k]
    changed.  Journals slot [k]'s entry, then updates that slot only. *)

val swap : t -> Program.t -> int -> int -> unit
(** [swap m p a b]: as {!move}, for a move that changed slots [a] and
    [b]. *)

val revert : t -> Program.t -> unit
(** [p] is back to the program [m] described before the last {!move} or
    {!swap} (its undo may rebuild a slot around the same instruction):
    the journaled entries go back, with no lookup. *)

val key : t -> int
(** A structural hash of the program described, for the cost cache: the
    wrapping sum over slots of a term that mixes the slot's index with
    its instruction's {!Instr.hash} (a constant for [Unused]).  An update
    subtracts a changed slot's old term and adds its new one.  Equal
    programs have equal keys however they were reached (a fresh table
    refreshed with the same program gives the same key); it is {e not}
    {!Program.hash}, which snapshots and the serve memo keep using. *)

val latency : t -> int
(** {!Latency.of_program} of the program described. *)

val active : t -> int
(** The number of active slots. *)

val describes : t -> Program.t -> bool
(** Whether [p] is, physically, the program the table was last given
    (by {!refresh}, {!move}, {!swap} or {!revert}).  Then, as long as
    every change to [p] since was reported, {!order} lists its active
    slots. *)

val order : t -> int array
(** The active slots' indices, in program order: the first {!active}
    entries are valid.  The array is the table's own, valid until its
    next update. *)

val steps : t -> (unit -> unit) array
(** The active slots' steps, in program order: the first {!active}
    entries are valid.  The array is the table's own, valid until its
    next update. *)

val step_latencies : t -> int array
(** The active slots' latencies, as {!steps}. *)

val has_undef_read : t -> defined:Liveness.Locset.t -> bool
(** Whether some slot of the program described reads, through its
    {!Liveness.strict_uses}, a location that neither [defined] nor an
    earlier slot's {!Liveness.defs} covers. *)

val dead_write :
  t -> slot:int -> old:Program.slot -> live_out:Liveness.Locset.t -> bool
(** For a program described that differs from a previous one only at
    [slot], which held [old]: whether both [old] and the slot's current
    content are [Unused] or {!Liveness.cannot_fault}, and every location
    either defines is dead after [slot] under [live_out] (a backward pass
    over the later slots' uses and kills).  Then the two programs leave
    every [live_out] location and every fault the same on every machine,
    so their test outcomes are identical.  After a {!move} of [slot], the
    journaled entry describes [old] without a lookup. *)

(** A per-slot memo of the static facts the search loop reads on every
    proposal: each slot's latency ({!Latency.of_instr}), its hash term,
    its {!Liveness.defs}, {!Liveness.strict_uses}, {!Liveness.uses} and
    {!Liveness.kills}, and whether it can fault ({!Liveness.cannot_fault}).

    A memo describes the program it was last {!refresh}ed with.  A refresh
    compares each slot's instruction {e physically} with the one the
    slot's facts came from and updates only the slots that differ —
    instructions are never mutated in place (see {!Instr}), so a move
    that changed one or two slots costs one or two updates plus a
    compare per slot.  An updated slot takes its facts from a bounded
    direct-mapped cache keyed by {!Instr.hash} and verified with
    {!Instr.equal}, so an instruction equal to a recently seen one (the
    instruction an undo restores, above all) is not derived again.  A
    [Program.copy], or a program re-parsed into new instruction values,
    is still described exactly.

    The readers are kept current by each update, so none of them walks
    every slot: {!key} and {!latency} are O(1), {!dead_write} walks the
    slots after the one it asks about, and only {!has_undef_read} walks
    the program.  [latency m = Latency.of_program p] after [refresh m p].

    A memo is mutable and unsynchronised: one per search context
    ([Search.Cost.t]), never shared across domains. *)

type t

val create : unit -> t
(** An empty memo; the first refresh derives every slot. *)

val refresh : t -> Program.t -> unit
(** Make the memo describe the program's current slots. *)

val key : t -> int
(** A structural hash of the program last refreshed, for the cost
    cache: the wrapping sum over slots of a term that mixes the slot's
    index with its instruction's {!Instr.hash} (a constant for
    [Unused]).  A refresh subtracts a changed slot's old term and adds
    its new one.  Equal programs have equal keys however they were
    reached (a fresh memo refreshed with the same program gives the same
    key); it is {e not} {!Program.hash}, which snapshots and the serve
    memo keep using. *)

val latency : t -> int
(** {!Latency.of_program} of the program last refreshed. *)

val has_undef_read : t -> defined:Liveness.Locset.t -> bool
(** Whether some slot of the program last refreshed reads, through its
    {!Liveness.strict_uses}, a location that neither [defined] nor an
    earlier slot's {!Liveness.defs} covers ({!Liveness.reads_undefined}). *)

val dead_write :
  t -> slot:int -> old:Program.slot -> live_out:Liveness.Locset.t -> bool
(** For a program last refreshed that differs from a previous one only
    at [slot], which held [old]: whether both [old] and the slot's
    current content are [Unused] or {!Liveness.cannot_fault}, and every
    location either defines is dead after [slot] under [live_out]
    ({!Liveness.live_after} over the memoized sets of the later slots).
    Then the two programs leave every [live_out] location and every
    fault the same on every machine, so their test outcomes are
    identical. *)

(** A per-slot memo of the static facts the search loop reads on every
    proposal: each slot's latency ({!Latency.of_instr}), its hash words
    ({!Program.slot_words}), and its {!Liveness.defs} and
    {!Liveness.strict_uses}.

    A memo describes the program it was last {!refresh}ed with.  A refresh
    compares each slot's instruction {e physically} with the one the
    slot's facts came from and re-derives only the slots that differ —
    instructions are never mutated in place (see {!Instr}), so a move
    that changed one or two slots costs one or two derivations plus a
    compare per slot.  A [Program.copy], or a program re-parsed into new
    instruction values, is still described exactly: at worst every slot
    is re-derived.

    The readers are built on the same per-instruction functions as the
    reference definitions, so [hash m = Program.hash p] and
    [latency m = Latency.of_program p] bit for bit after [refresh m p].

    A memo is mutable and unsynchronised: one per search context
    ([Search.Cost.t]), never shared across domains. *)

type t

val create : unit -> t
(** An empty memo; the first refresh derives every slot. *)

val refresh : t -> Program.t -> unit
(** Make the memo describe the program's current slots. *)

val hash : t -> int64
(** {!Program.hash} of the program last refreshed. *)

val latency : t -> int
(** {!Latency.of_program} of the program last refreshed. *)

val has_undef_read : t -> defined:Liveness.Locset.t -> bool
(** Whether some slot of the program last refreshed reads, through its
    {!Liveness.strict_uses}, a location that neither [defined] nor an
    earlier slot's {!Liveness.defs} covers ({!Liveness.reads_undefined}). *)

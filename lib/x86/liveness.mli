(** Def/use sets and backward liveness for loop-free programs.

    Locations are registers, the flags, and memory as a single blob (stores
    never kill the blob, so the analysis stays sound for partial updates).
    Used by the cost function to know which locations to compare, by the
    operand pools, and for dead-code elimination when reporting rewrites. *)

type loc =
  | Lgp of Reg.gp
  | Lxmm of Reg.xmm
  | Lflags
  | Lmem

(** Sets of locations, packed into the bits of one [int] (34 bits: the
    flags, memory, 16 GPs, 16 XMMs), so every operation is a word op and
    {!defs}, {!uses}, {!strict_uses} and {!kills} allocate nothing.
    {!elements}, {!fold} and {!iter} visit locations in [Stdlib.compare]
    order on {!loc}: [Lflags], [Lmem], GPs by index, then XMMs by index. *)
module Locset : sig
  type t = private int
  (** Readable as the [int] it is, so {!Facts}' walks over per-slot sets
      are a few word ops per slot. *)

  val empty : t
  val is_empty : t -> bool
  val mem : loc -> t -> bool
  val add : loc -> t -> t
  val singleton : loc -> t
  val remove : loc -> t -> t
  val union : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool
  val equal : t -> t -> bool
  val disjoint : t -> t -> bool
  val elements : t -> loc list
  val of_list : loc list -> t
  val fold : (loc -> 'a -> 'a) -> t -> 'a -> 'a
  val iter : (loc -> unit) -> t -> unit
  val for_all : (loc -> bool) -> t -> bool
end

(** Everything below about one instruction, derived in one match on its
    opcode and one pass over its operands; {!defs}, {!uses},
    {!strict_uses}, {!kills} and {!cannot_fault} are its fields. *)
type summary = {
  defs : Locset.t;
  uses : Locset.t;
  strict_uses : Locset.t;
  kills : Locset.t;
  cannot_fault : bool;
}

val summary : Instr.t -> summary

val defs : Instr.t -> Locset.t
val uses : Instr.t -> Locset.t

val merge_only_dst : Instr.t -> bool
(** The destination read is pure bit-preservation: the old value is copied
    into the lanes the instruction does not compute (setcc's upper 56 bits,
    the scalar SSE merge forms' upper lanes, movlhps/movhlps' untouched
    half) and never feeds the computed result. *)

val strict_uses : Instr.t -> Locset.t
(** {!uses} minus {!merge_only_dst} destination reads — the locations whose
    incoming {e value} can reach the bits the instruction computes.  The
    static undef-read screen keys on these so a fresh-register merge write
    (e.g. [cvtsi2sd] into a never-written xmm) is not flagged. *)

val cannot_fault : Instr.t -> bool
(** The instruction is well formed and has no memory operand ([lea]'s
    address operand excepted, since it is never accessed), so
    [Sandbox.Semantics.step] runs it to completion on every machine.
    Such an instruction's {!defs} never hold [Lmem].  The search elides
    the tests of a move whose old and new instruction both pass this
    and define only dead locations; test_sandbox pins the premise on
    every instance of the opcode × shape matrix. *)

val kills : Instr.t -> Locset.t
(** Subset of {!defs} that fully overwrites the location, validated by the
    taint-differential oracle ([test/oracles/oracle.ml]).  [Lmem] is never killed;
    partially-merging SSE register writes still kill at register
    granularity only when the untouched lanes come from the {e use} of the
    same register (the backward transfer function re-adds them); [Lflags]
    is not killed by inc/dec (CF survives) or by a shift whose masked
    count is zero (all flags survive). *)

val live_before : Program.t -> live_out:Locset.t -> Locset.t array
(** [live_before p ~live_out] has one entry per {e slot}: the locations live
    immediately before that slot executes. *)

val live_in : Program.t -> live_out:Locset.t -> Locset.t
(** Locations the program reads before writing. *)

val is_store : Instr.t -> bool
(** The destination operand is memory. *)

val dead_slots : Program.t -> live_out:Locset.t -> bool array
(** Slots whose instruction defines only dead locations (and is not a
    store). *)

val dce : Program.t -> live_out:Locset.t -> Program.t
(** Iterated dead-code elimination: replaces dead slots with [Unused] until
    a fixed point. *)

val loc_to_string : loc -> string

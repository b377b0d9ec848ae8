(** Loop-free programs as fixed-length arrays of instruction slots.

    A slot holds either an instruction or the [UNUSED] token of the paper's
    instruction move: proposing [UNUSED] deletes an instruction, replacing
    [UNUSED] inserts one.  The slot array length is fixed during search, so
    rewrites can grow back after shrinking. *)

type slot =
  | Unused
  | Active of Instr.t

type t = { slots : slot array }

val of_instrs : Instr.t list -> t
(** One active slot per instruction. *)

val with_padding : int -> Instr.t list -> t
(** [with_padding extra instrs] appends [extra] unused slots, giving the
    search head-room to insert instructions. *)

val instrs : t -> Instr.t list
(** Active instructions, in order. *)

val length : t -> int
(** Number of {e active} slots (the paper's LOC metric). *)

val slot_count : t -> int

val copy : t -> t

val equal : t -> t -> bool

val hash : t -> int64
(** 64-bit structural hash (FNV-1a over a canonical encoding of the slot
    array, [Unused] slots included).  [equal a b] implies
    [hash a = hash b].  Snapshots, the serve memo's digests and the
    benchmark's expected winners record it, so its values are fixed; the
    search's cost cache keys on {!Facts.key} instead. *)

val to_string : t -> string
(** One instruction per line; unused slots omitted. *)

val pp : Format.formatter -> t -> unit

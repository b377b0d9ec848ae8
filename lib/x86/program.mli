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
(** 64-bit structural hash (FNV-1a over the slot array, [Unused] slots
    included).  [equal a b] implies [hash a = hash b].  It is
    [hash_words (Array.map slot_words p.slots)]. *)

val slot_words : slot -> Bytes.t
(** The words {!hash} mixes for one slot, as little-endian int64s: [0]
    for [Unused]; [1 + Hashtbl.hash op] then each operand's encoding for
    an instruction.  Depends only on the slot's contents; the result must
    not be mutated. *)

val hash_words : Bytes.t array -> int64
(** FNV-1a over each slot's {!slot_words}, in order.  {!Facts} keeps
    every slot's words and hashes them here, so its hash is {!hash} by
    construction. *)

val to_string : t -> string
(** One instruction per line; unused slots omitted. *)

val pp : Format.formatter -> t -> unit

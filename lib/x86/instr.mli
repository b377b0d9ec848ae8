(** A single instruction: an opcode plus operands in AT&T order.

    {b Instructions are never mutated in place}, even though [operands] is
    an array: code that wants a different instruction builds a new value
    (the search's moves copy the operand array before changing it, and an
    undo puts the original value back).  Caches may therefore key on
    physical identity, and these do:
    - [Sandbox.Compiled]'s per-slot translation memo reuses a slot's
      closure and latency while the slot still holds the very instruction
      it translated;
    - {!Facts}, the search's per-slot facts memo, reuses a slot's latency,
      hash words and def/use sets the same way — the cost cache's key,
      the latency perf term and the undef-read screen all read it;
    - {!equal} answers [true] at once for two references to one
      instruction.
    Mutating an instruction in place would leave both memos describing
    the old one, silently: a change to this rule must change them. *)

type t = {
  op : Opcode.t;
  operands : Operand.t array;  (** never mutated; see above *)
}

val make : Opcode.t -> Operand.t list -> t
(** Raises [Invalid_argument] when the operands fit no shape of the
    opcode. *)

val make_unchecked : Opcode.t -> Operand.t array -> t

val is_well_formed : t -> bool

val shape : t -> Shape.kind array
(** The shape the instruction inhabits (raises if ill-formed). *)

val gp_width : t -> Reg.w
(** The width used when printing GP operands of this instruction. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Paper-style AT&T rendering, e.g. ["mulss 8(rdi), xmm1"]. *)

val pp : Format.formatter -> t -> unit

(** A single instruction: an opcode plus operands in AT&T order.

    {b Instructions are never mutated in place}, even though [operands] is
    an array: code that wants a different instruction builds a new value
    (the search's moves copy the operand array before changing it, and an
    undo puts the original value back).  Caches may therefore key on
    physical identity, and these do:
    - [Sandbox.Compiled]'s memo keeps, per slot, the instruction it last
      installed there, and re-installs nothing while the slot still holds
      that very instruction;
    - {!Facts}, the search's per-slot facts memo, does the same for each
      slot's hash term, latency, def/use sets and fault freedom — the
      cost cache's key, the latency perf term, the undef-read screen and
      the dead-write elision all read it;
    - {!equal} answers [true] at once for two references to one
      instruction.
    Both memos back their slots with a bounded direct-mapped cache keyed
    by {!hash} and verified with {!equal}, so an instruction equal to one
    seen earlier (an undo's restored instruction, or a move that rebuilds
    a recent instruction) is looked up rather than translated or derived
    again.  Those caches compare structurally and do not rely on the rule.
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

val hash : t -> int
(** Structural hash: [equal a b] implies [hash a = hash b].  Allocates
    nothing; every bit depends on the opcode and every operand, so the
    low bits index a direct-mapped cache directly. *)

val to_string : t -> string
(** Paper-style AT&T rendering, e.g. ["mulss 8(rdi), xmm1"]. *)

val pp : Format.formatter -> t -> unit

(** A single instruction: an opcode plus operands in AT&T order.

    {b Instructions are never mutated in place}, even though [operands] is
    an array: code that wants a different instruction builds a new value
    (the search's moves copy the operand array before changing it, and an
    undo puts the original value back).  Caches may therefore key on
    physical identity, and these do:
    - {!Facts}, the search's slot table, keeps per slot the slot value
      its entry was made for — the hash term, latency, def/use sets,
      fault freedom and [Sandbox.Compiled]'s translated closure — and a
      walk ([Facts.refresh]) updates nothing while the slot still holds
      that very value; the cost cache's key, the latency perf term, the
      undef-read screen, the dead-write elision and the compiled
      engine's steps all read it;
    - {!equal} answers [true] at once for two references to one
      instruction.
    The table backs its slots with a bounded direct-mapped cache keyed
    by {!hash} and verified with {!equal}, so an instruction equal to one
    seen earlier (an undo's restored instruction, or a move that rebuilds
    a recent instruction) is looked up rather than derived and
    translated again.  That cache compares structurally and does not
    rely on the rule.  Mutating an instruction in place would leave the
    table describing the old one, silently: a change to this rule must
    change it. *)

type t = {
  op : Opcode.t;
  operands : Operand.t array;  (** never mutated; see above *)
}

val make : Opcode.t -> Operand.t list -> t
(** Raises [Invalid_argument] when the operands fit no shape of the
    opcode. *)

val make_unchecked : Opcode.t -> Operand.t array -> t

val is_well_formed : t -> bool

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

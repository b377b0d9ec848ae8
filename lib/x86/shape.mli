(** Operand-shape discipline.

    Every opcode admits a small set of {e shapes} — vectors of operand kinds
    in AT&T order (sources first, destination last).  The search transforms
    preserve shapes: an {e operand} move replaces one operand with another of
    the same kind, and an {e opcode} move replaces the opcode with another
    admitting the instruction's current shape.  This guarantees every
    proposal is a well-formed instruction. *)

(** Memory access width. *)
type mw = M32 | M64 | M128

(** Operand kind.  [K_imm8] covers shuffle selectors and shift counts;
    [K_imm32] sign-extended ALU immediates; [K_imm64] only for [movabs]. *)
type kind =
  | K_gp of Reg.w
  | K_xmm
  | K_imm8
  | K_imm32
  | K_imm64
  | K_mem of mw

val kind_matches : kind -> Operand.t -> bool
(** Does the operand inhabit the kind?  (Immediates are range-checked.) *)

val shapes : Opcode.t -> kind array list
(** All admissible shapes of the opcode, in AT&T operand order.  The
    lists are built once and shared by every call: do not mutate them. *)

val shape_of : Opcode.t -> Operand.t array -> kind array option
(** The first of the opcode's shapes the given operands inhabit, if any.
    Allocates only its [Some]. *)

val position : Opcode.t -> Operand.t array -> int
(** The index in [shapes op] of {!shape_of}'s shape, or [-1] when the
    operands fit none.  Allocates nothing. *)

val equal_kind : kind -> kind -> bool
val equal_shape : kind array -> kind array -> bool

val kind_to_string : kind -> string

(** The paper's four proposal moves (§2.2), applied in place with undo.

    - {b Opcode}: replace one instruction's opcode with another admitting
      the same operand shape.
    - {b Operand}: replace one operand with another of the same kind.
    - {b Swap}: exchange two slots (either may be [Unused]).
    - {b Instruction}: replace a slot with [Unused] or with a freshly
      random instruction.

    All four are ergodic over the slot-array program space and symmetric,
    as required by the Metropolis ratio. *)

type kind =
  | Opcode_move
  | Operand_move
  | Swap_move
  | Instruction_move

(** What a move changed, and so how to take it back. *)
type undo = private
  | Restore_slot of int * Program.slot
      (** an opcode, operand or instruction move changed this one slot,
          which held this content before *)
  | Restore_swap of int * int  (** a swap exchanged these two slots *)

val propose : Rng.Xoshiro256.t -> Pools.t -> Program.t -> (kind * undo) option
(** Mutates the program; [None] when the drawn move is inapplicable (e.g.
    an opcode move on an empty program, or a swap that drew one slot
    twice), leaving the program as it was.  The optimizer counts such a
    draw as a proposal that stays put — a valid self-loop of the chain —
    rather than redrawing. *)

val undo : Program.t -> undo -> unit

val kind_to_string : kind -> string

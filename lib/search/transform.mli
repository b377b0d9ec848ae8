(** The paper's four proposal moves (§2.2), applied in place with undo.

    - {b Opcode}: replace one instruction's opcode with another admitting
      the same operand shape.
    - {b Operand}: replace one operand with another of the same kind.
    - {b Swap}: exchange two slots (either may be [Unused]).
    - {b Instruction}: replace a slot with [Unused] or with a freshly
      random instruction.

    Together they are ergodic over the slot-array program space.  They
    are {e not} symmetric: an instruction move draws its replacement in
    stages ({!Pools.random_instr}: opcode, then shape, then operands), so
    the forward and reverse proposals of one move generally have
    different probabilities; and the instruction an opcode or operand
    move makes may fit another of its opcode's shapes first, so the
    reverse move can have a different number of candidates.  The acceptance rule
    ([Strategy]) applies no Hastings correction for this, so the chain
    samples the cost-weighted target only approximately; ROADMAP item 9
    tracks drawing instructions uniformly. *)

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

val propose :
  ?facts:Facts.t -> Rng.Xoshiro256.t -> Pools.t -> Program.t -> (kind * undo) option
(** Mutates the program; [None] when the drawn move is inapplicable (e.g.
    an opcode move on an empty program, or a swap that drew one slot
    twice), leaving the program as it was.  The optimizer counts such a
    draw as a proposal that stays put — a valid self-loop of the chain —
    rather than redrawing.

    [facts]: a slot table that describes the program ({!Facts.describes}:
    it was last given this program, and told of every change since, as
    the search's move-fed table is).  An opcode or operand move then
    draws its active slot from the table's {!Facts.order} instead of
    walking the slots — the same draw, so the same move.  A table that
    describes another program is ignored. *)

val random_active : ?facts:Facts.t -> Rng.Xoshiro256.t -> Program.t -> int
(** The slot an opcode or operand move changes: the [k]-th active slot
    counting down from the last, for one draw [k] uniform over the
    active slots, or [-1] (with no draw) when none is active.  With
    [facts] as for {!propose}. *)

val undo : Program.t -> undo -> unit

val kind_to_string : kind -> string

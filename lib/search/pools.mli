(** Operand and opcode pools for the proposal distribution.

    Pools are derived from the target: its registers plus a few scratch
    registers, its immediates (notably the 64-bit constants loaded via
    [movabs]) plus small canonical values, and the memory operands it
    references.  This mirrors STOKE's practice of drawing operands from the
    target's context so proposals stay relevant. *)

type t

val make : target:Program.t -> spec:Sandbox.Spec.t -> t
(** Raises [Invalid_argument] if a pool operand does not inhabit its
    kind ([Shape.kind_matches]): the moves rely on it (see
    {!opcode_move}). *)

val operands_of_kind : t -> Shape.kind -> Operand.t array
(** May be empty (e.g. no memory operands in a register-only kernel). *)

(** What an opcode move needs about an instruction of opcode [op] whose
    operands fit, first, shape [k] of [Shape.shapes op] (its
    [Shape.position]). *)
type opcode_move = {
  shape : Shape.kind array;  (** [List.nth (Shape.shapes op) k] *)
  candidates : Opcode.t array;
      (** the {!all_opcodes} admitting [shape], in that order *)
  self : int;  (** [op]'s index in [candidates], or [-1] *)
}

val opcode_move : t -> Opcode.t -> int -> opcode_move
(** [opcode_move t op k], an O(1) read.  The opcode tables depend only on
    which operand kinds have a non-empty pool, so they are built once per
    such availability mask and shared, read-only, by every search on
    every domain: the caller must not mutate the arrays.  Replacing the
    opcode by a candidate, or one operand by a pool operand of its kind
    in [shape], always gives a well-formed instruction. *)

val all_opcodes : t -> Opcode.t array
(** Opcodes for the instruction move: those with at least one shape whose
    every kind has a non-empty operand pool, in [Opcode.all] order. *)

val random_instr : Rng.Xoshiro256.t -> t -> Instr.t
(** A random well-formed instruction over the pools, drawn in three
    stages: an opcode uniformly from {!all_opcodes}, then one of its
    instantiable shapes uniformly, then each operand uniformly from its
    kind's pool.  This is {e not} uniform over instructions: an opcode
    with one shape and small pools gets as much mass as one with many
    shapes and large pools, so single instructions' probabilities
    differ by orders of magnitude (ROADMAP item 9). *)

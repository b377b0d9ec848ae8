(** Operand and opcode pools for the proposal distribution.

    Pools are derived from the target: its registers plus a few scratch
    registers, its immediates (notably the 64-bit constants loaded via
    [movabs]) plus small canonical values, and the memory operands it
    references.  This mirrors STOKE's practice of drawing operands from the
    target's context so proposals stay relevant. *)

type t

val make : target:Program.t -> spec:Sandbox.Spec.t -> t

val operands_of_kind : t -> Shape.kind -> Operand.t array
(** May be empty (e.g. no memory operands in a register-only kernel). *)

val opcodes_with_shape : t -> Shape.kind array -> Opcode.t array
(** The {!all_opcodes} admitting the given shape, in that order.  The
    opcode tables depend only on which operand kinds have a non-empty
    pool, so they are built once per such availability mask and shared,
    read-only, by every search on every domain: the caller must not
    mutate the array. *)

val all_opcodes : t -> Opcode.t array
(** Opcodes for the instruction move: those with at least one shape whose
    every kind has a non-empty operand pool, in [Opcode.all] order. *)

val random_instr : Rng.Xoshiro256.t -> t -> Instr.t
(** A uniformly random well-formed instruction over the pools. *)

(** Taint-differential oracle for the [Liveness] def/use/kill tables.

    Every opcode × shape is instantiated into concrete instructions
    (distinct-register, aliased-register, and per-immediate/addressing-mode
    variants — a superset of what [Search.Pools] can generate) and run as a
    one-slot program on seeded random machines under every available
    engine.  Three properties are machine-checked against the actual
    execution:

    - {b writes ⊆ defs}: the pre/post state diff only touches claimed defs;
    - {b non-uses are unread}: flipping a location ℓ ∉ [uses i] leaves
      every other location and the fault outcome bit-identical, and ℓ
      itself obeys a per-component merge rule (per flag / 64-bit lane /
      memory byte, the result is the baseline's value or the perturbed
      input — never a third value);
    - {b kills fully overwrite}: for ℓ ∈ [kills i] ∖ [uses i] the merge
      rule tightens to bit-identity with the baseline.

    An empty result means the tables are consistent with every engine. *)

type violation = {
  instr : Instr.t;
  engine : Sandbox.Exec.engine;
  detail : string;
}

val violation_to_string : violation -> string

val run : ?states:int -> ?seed:int64 -> unit -> violation list
(** Runs the full matrix on [states] random machines (default 2). *)

val instances : unit -> Instr.t list
(** The concrete instructions themselves, so tests can assert the matrix
    covers every opcode × shape the search pools can generate. *)

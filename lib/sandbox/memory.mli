(** Sandboxed flat memory arena.

    Candidate rewrites dereference arbitrary addresses, so every access is
    bounds-checked against a single arena of bytes starting at [base]; any
    access outside it faults, exactly like STOKE's sandboxed test-case
    evaluation.  Alignment-checked accesses (movaps) additionally fault on
    misaligned addresses.

    The arena tracks a dirty range (high-water marks widened by every
    write) so {!restore_from} can undo a run in O(bytes written) instead
    of re-copying the whole image; 4- and 8-byte accesses use single
    little-endian loads/stores rather than byte loops. *)

type t

type fault =
  | Out_of_bounds of int64  (** the offending address *)
  | Misaligned of int64

exception Fault_exn of fault
(** Raised by the [_exn] access variants; carries the same fault the
    result-returning variants report.  Local to the execution engines —
    it never escapes {!Exec.run} or {!Compiled.exec}. *)

val create : ?base:int64 -> int -> t
(** [create n] makes an arena of [n] zero bytes.  [base] defaults to
    0x100000. *)

val base : t -> int64
val size : t -> int

val copy : t -> t
(** A fresh arena with the same contents; the copy starts clean (empty
    dirty range, no remembered restore source). *)

val blit_from : src:t -> dst:t -> unit
(** Copy the full contents (sizes must match).  Afterwards [dst] is clean
    and remembers [src] as its restore source. *)

val restore_from : src:t -> dst:t -> unit
(** Make [dst]'s contents equal [src]'s.  When [dst] was last fully
    copied from this same [src] (physical identity) and [src] has not
    been written since, only [dst]'s dirty range is re-copied — O(bytes
    the intervening runs wrote).  Any other pairing falls back to a full
    {!blit_from}.  Invariant: all writes to an arena go through {!write},
    {!write128}, their [_exn] variants, or {!set_bytes}, or store
    through {!unsafe_bytes} and then {!mark} the bytes; mutating
    {!unsafe_bytes} without {!mark} would silently break the fast path —
    enable {!set_integrity_checks} in tests to catch such bypasses. *)

val is_clean : t -> bool
(** No writes since creation / the last restore (dirty range empty). *)

val read : t -> int64 -> int -> (int64, fault) result
(** [read m addr n] reads [n] bytes ([1..8]) little-endian, zero-extended. *)

val write : t -> int64 -> int -> int64 -> (unit, fault) result
(** [write m addr n v] stores the low [n] bytes of [v] little-endian. *)

val read_exn : t -> int64 -> int -> int64
(** As {!read} but raising {!Fault_exn}: no [result] allocation on the
    compiled engine's hot path.  Width must be 1..8 (unchecked). *)

val write_exn : t -> int64 -> int -> int64 -> unit

val read128 : ?aligned:bool -> t -> int64 -> (int64 * int64, fault) result
(** Low and high quadwords.  With [aligned:true], faults unless the address
    is 16-byte aligned. *)

val write128 : ?aligned:bool -> t -> int64 -> int64 * int64 -> (unit, fault) result

val read128_exn : ?aligned:bool -> t -> int64 -> int64 * int64

val write128_exn : ?aligned:bool -> t -> int64 -> int64 * int64 -> unit

val set_bytes : t -> int64 -> string -> unit
(** Initialize arena contents at an absolute address (for test cases);
    raises [Invalid_argument] when out of range.  Allocates nothing. *)

val unsafe_bytes : t -> Bytes.t
(** The raw contents (not a copy — use {!copy} first if needed).  A
    store into it must be followed by {!mark}: otherwise it bypasses
    dirty tracking, so a later {!restore_from} fast path would silently
    leave the stale byte in place.  The name is the warning;
    {!set_integrity_checks} turns the invariant into a runtime
    assertion. *)

val mark : t -> int -> int -> unit
(** [mark m off n] widens the dirty range over the [n] bytes at arena
    offset [off], as every {!write} does.  For a caller that bounds-checks
    and stores through {!unsafe_bytes} itself (the compiled engine's flat
    closures, which must not pass an [int64] across a module
    boundary). *)

val set_integrity_checks : bool -> unit
(** When enabled (default off — it is O(arena size) per restore), every
    {!restore_from} fast path first verifies that all bytes outside the
    destination's dirty range still equal the source's, failing with
    [Failure] on a mismatch.  For debug builds and tests. *)

val equal : t -> t -> bool
(** Content equality (base and bytes; dirty bookkeeping is ignored). *)

val fault_to_string : fault -> string

(** Architectural state: sixteen 64-bit general-purpose registers, sixteen
    128-bit xmm registers (stored as quadword pairs), the five status flags
    our opcode subset reads or writes, and a sandboxed memory arena.  The
    registers share one unboxed byte register file ({!field-regs}). *)

type flags = {
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;  (** overflow flag; [of] is an OCaml keyword *)
  mutable pf : bool;
}

type t = {
  regs : Bytes.t;
      (** The register file: {!regs_size} bytes, little-endian quads.  GP
          register [i] ({!Reg.gp_index}) is the quad at byte [8i]; xmm
          register [i] is the quad pair at [xmm_base + 16i] (low quad
          first).  All 48 quads are contiguous, so quad [q] sits at byte
          [8q] — the same layout as the native worker's lane record, which
          therefore marshals a machine with one blit.

          The file is unboxed on purpose.  A boxed [int64 array] field
          stores a pointer per register, and a long-lived machine lives in
          the major heap, so every register write and every
          {!restore_from} went through the GC write barrier: a promoted
          machine measured 403–473 ns per restore against 36 ns for a
          young one.  Bytes hold no pointers, so a write is a plain store
          and a restore is one memcpy wherever the machine lives. *)
  flags : flags;
  mem : Memory.t;
}

val regs_size : int
(** 384: sixteen GP quads, then sixteen xmm quad pairs. *)

val xmm_base : int
(** 0x80: byte offset of xmm0's low quad in {!field-regs}. *)

val gp_offset : Reg.gp -> int
(** Byte offset of a GP register in {!field-regs}. *)

val xmm_offset : Reg.xmm -> int
(** Byte offset of an xmm register's low quad in {!field-regs}; the high
    quad follows at [+8]. *)

val create : ?mem_size:int -> unit -> t
(** Fresh zeroed machine; [mem_size] defaults to 4096 bytes.  [rsp] starts
    in the middle of the arena so small negative and positive displacements
    both stay in bounds. *)

val copy : t -> t
val restore_from : src:t -> dst:t -> unit
(** Overwrite [dst]'s state with [src]'s without allocating.  The register
    file is one 384-byte blit with no write barrier (see {!field-regs}),
    so the cost is the same for a machine in the minor or the major heap;
    flags are copied outright; memory goes through
    {!Memory.restore_from}, so repeatedly restoring the same pristine
    [src] into a scratch [dst] costs only the bytes the intervening runs
    wrote. *)

val get_gp : t -> Reg.gp -> int64
val set_gp : t -> Reg.gp -> int64 -> unit

val get_gp32 : t -> Reg.gp -> int64
(** Low 32 bits, zero-extended. *)

val set_gp32 : t -> Reg.gp -> int64 -> unit
(** Writes the low 32 bits and zeroes the upper 32 (x86-64 rule). *)

val get_xmm : t -> Reg.xmm -> int64 * int64
val set_xmm : t -> Reg.xmm -> int64 * int64 -> unit

val get_xmm_lo : t -> Reg.xmm -> int64
val set_xmm_lo : t -> Reg.xmm -> int64 -> unit
(** Writes the low quad, preserving the high quad. *)

val get_f64 : t -> Reg.xmm -> float
(** Low quad as a double. *)

val set_f64 : t -> Reg.xmm -> float -> unit

val get_f32 : t -> Reg.xmm -> float
(** Low dword as a single (widened to an OCaml float). *)

val set_f32 : t -> Reg.xmm -> float -> unit
(** Rounds to single, writes the low dword, preserves the rest. *)

val get_f32_hi : t -> Reg.xmm -> float
(** Dword 1 (bits 32–63) as a single. *)

val default_rsp : t -> int64

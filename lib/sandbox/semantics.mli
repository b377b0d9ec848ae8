(** Operational semantics of the modelled opcode subset.

    [step] executes one instruction against a {!Machine.t}, mutating it in
    place.  IEEE-754 behaviour comes from the host's double arithmetic;
    single-precision operations round results back to binary32 (exact for
    the arithmetic ops in our subset).  All memory accesses are checked by
    {!Memory}.

    The value-level helpers below (flag computation, SSE min/max,
    rounding, float→int conversion, 128-bit lane plumbing) are exported so
    {!Compiled} specializes instructions over {e exactly} the same
    arithmetic — the two engines stay bit-identical by sharing code, not
    by re-deriving it. *)

type fault =
  | Segv of string  (** out-of-bounds or misaligned access *)
  | Sigfpe of string  (** reserved — FP exceptions are masked on x86-64 *)
  | Sigill of string  (** instruction form the interpreter cannot run *)

val step : Machine.t -> Instr.t -> (unit, fault) result

val fault_to_string : fault -> string

val equal_fault : fault -> fault -> bool

val eff_addr : Machine.t -> Operand.mem -> int64
(** Effective address of a memory operand. *)

(** {2 Shared arithmetic helpers} *)

val width_bytes : Reg.w -> int

val signed : Reg.w -> int64 -> int64
(** Sign-extended view for signed computation. *)

val trunc : Reg.w -> int64 -> int64

val set_logic_flags : Machine.t -> Reg.w -> int64 -> unit
val set_add_flags : Machine.t -> Reg.w -> int64 -> int64 -> int64 -> unit
val set_sub_flags : Machine.t -> Reg.w -> int64 -> int64 -> int64 -> unit
val set_fp_compare_flags : Machine.t -> float -> float -> unit
val cond_holds : Machine.t -> Opcode.cond -> bool

val sse_min_f64 : dst_old:float -> src:float -> float
val sse_max_f64 : dst_old:float -> src:float -> float

val rint_even : float -> float
(** Round to nearest, ties to even (the default MXCSR mode). *)

val rounding : int64 -> float -> float
(** [rounding mode]: the rounding [roundsd]/[roundss] apply for
    immediate [mode] (its low two bits: nearest-even, floor, ceil,
    truncate).  A NaN operand is returned quieted in every mode. *)

val fma : Opcode.t -> float -> float -> float -> float
(** [fma op x1 x2 x3]: the FMA form [op] on its Intel operands dest
    [x1], vvvv [x2] and r/m [x3], rounded once — the one table of the
    132/213/231 operand orders and of the [vfnmadd]/[vfmsub] negations.
    A NaN operand makes the result the first NaN in the order the
    operands enter the form's a·b + c (132: x1·x3 + x2; 213: x2·x1 + x3;
    231: x2·x3 + x1), quieted and never negated.  An invalid operation
    with no NaN operand gives the default NaN [0xfff8000000000000].  The
    single-precision forms take their operands widened to double, and
    the caller rounds the result to binary32.  Raises [Invalid_argument]
    on an opcode that is not an FMA form. *)

val f2i64 : float -> int64
(** Float → int64 with the x86 "integer indefinite" result on overflow or
    NaN. *)

val f2i32 : float -> int64

val dword_of : float -> int64
(** binary32 bits of a float, zero-extended to a dword. *)

val lanes4 : int64 * int64 -> int64 array
val join4 : int64 array -> int64 * int64

val map_lanes4_f32 : (float -> float -> float) -> int64 * int64 -> int64 * int64 -> int64 * int64
val map_lanes2_f64 : (float -> float -> float) -> int64 * int64 -> int64 * int64 -> int64 * int64

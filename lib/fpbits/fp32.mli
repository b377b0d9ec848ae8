(** Single-precision (binary32) arithmetic emulated over OCaml doubles.

    A float32 value is represented as an OCaml [float] whose value is exactly
    representable in binary32.  Arithmetic is performed in double precision
    and rounded back to single; for [+,-,*,/,sqrt] this double rounding is
    exact (binary64 carries 53 significand bits, which exceeds the
    2*24 + 2 = 50 bits required for innocuous double rounding). *)

val round : float -> float
(** Round a double to the nearest binary32 value (ties to even). *)

val is_representable : float -> bool
(** [true] when the double is exactly a binary32 value. *)

val add : float -> float -> float
val sub : float -> float -> float
val mul : float -> float -> float
val div : float -> float -> float
val sqrt : float -> float
val min : float -> float -> float
(** SSE [minss] semantics: returns the second operand when either input is
    NaN or when both are zero. *)

val max : float -> float -> float
(** SSE [maxss] semantics, mirror of {!min}. *)

val ordered : float -> int32
(** 32-bit analogue of {!Fp64.ordered}. *)

val of_ordered : int32 -> float

val succ : float -> float
(** Next binary32 value above [x]; saturates at [+∞] and at positive
    NaN, as {!Fp64.succ}. *)

val pred : float -> float
(** Previous binary32 value below [x]; saturates at [−∞] and at negative
    NaN. *)

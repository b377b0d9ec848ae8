(** Bit-level utilities for IEEE-754 double-precision values.

    The central tool is the {e ordered index}: reinterpreting the bits of a
    double as a signed 64-bit integer and flipping the negative half so that
    the whole set of doubles (from negative NaN through negative infinity,
    the negative reals, the zeros, the positive reals, positive infinity, and
    positive NaN) is arranged in ascending order.  ULP distances reduce to
    integer subtraction on ordered indices (Figure 3 of the paper). *)

(** Classification following the paper's Figure 1. *)
type class_ =
  | Zero
  | Denormal
  | Normal
  | Infinity
  | Nan

val classify : float -> class_

val class_to_string : class_ -> string

val sign_bit : float -> bool
(** [sign_bit x] is [true] when the sign bit of [x] is set (negative,
    including [-0.] and negative NaNs). *)

val exponent_bits : float -> int
(** Raw biased exponent field, in [0, 2047]. *)

val fraction_bits : float -> int64
(** Raw 52-bit fraction field. *)

val ordered : float -> int64
(** [ordered x] maps [x] to its ordered index.  Monotone in the numeric
    order of doubles; [ordered (-0.)] = [ordered 0.] = [0L]. *)

val of_ordered : int64 -> float
(** Inverse of {!ordered} (for [0L] returns [+0.]). *)

val succ : float -> float
(** Next representable double above [x] in the ordered enumeration.
    Saturates at [+∞] ([succ infinity = infinity]) and at positive NaN. *)

val pred : float -> float
(** Previous representable double below [x].  Saturates at [−∞] and at
    negative NaN. *)

val to_hex_string : float -> string
(** Raw bit pattern, e.g. ["0x3ff0000000000000"]. *)

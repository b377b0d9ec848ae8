(** ULP distances between floating-point values, and unsigned 64-bit
    arithmetic for manipulating them safely.

    A distance is an [int64] interpreted as an unsigned quantity — the
    paper's [uint64_t ULP(double, double)] (Figure 3).  Values may occupy
    the full unsigned range, so all comparisons and arithmetic here go
    through the unsigned helpers. *)

type t = int64
(** Unsigned 64-bit ULP count. *)

val dist64 : float -> float -> t
(** Number of doubles strictly between the two arguments (plus one when they
    differ); [0L] iff the arguments have equal ordered index (so
    [dist64 0. (-0.) = 0L]). *)

val dist32 : float -> float -> t
(** ULP distance in the binary32 enumeration; the arguments are rounded to
    single first. *)

val zero : t
val max_value : t
(** All-ones, the paper's ULLONG_MAX. *)

val compare : t -> t -> int
(** Unsigned comparison. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val max : t -> t -> t
val add_sat : t -> t -> t
(** Saturating unsigned addition (never wraps past {!max_value}). *)

val sub_clamp : t -> t -> t
(** [sub_clamp a b] is [a - b] or [0L] when [b >= a] (unsigned). *)

val to_float : t -> float
(** Unsigned conversion (exact up to 2{^53}, then rounded). *)

val of_float : float -> t
(** Clamping unsigned conversion: negatives map to [0L], values at or above
    2{^64} map to {!max_value}.  Useful for user-facing η given as [1e12]. *)

val eta_of_float : float -> (t, string) result
(** A user-supplied precision budget η: any number ≥ 0, [+∞] included,
    converted with {!of_float}.  NaN and negatives are errors rather
    than silently clamped to [0L]. *)

val to_string : t -> string
(** Unsigned decimal rendering. *)

val eta_single : t
(** ≈ ULP gap between double- and single-precision: 5·10{^9} (§6.1). *)

val eta_half : t
(** ≈ ULP gap between double- and half-precision: 4·10{^12} (§6.1). *)

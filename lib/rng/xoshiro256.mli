(** xoshiro256** pseudo-random generator (Blackman, Vigna 2018).

    The workhorse generator for MCMC search: one 64-bit output per call,
    256-bit state, seeded deterministically from a single [int64] via
    SplitMix64. *)

type t

val create : int64 -> t

val next : t -> int64
(** Next raw 64-bit output. *)

val next_top53 : t -> int
(** The top 53 bits of {!next}'s output, as a non-negative [int]: the
    same draw, returned without boxing an [int64]. *)

val next_below : t -> int -> int
(** [next_below t n], for [n > 0]: {!next}'s output shifted right by one
    bit, modulo [n] — [Dist.int]'s draw, returned without boxing an
    [int64].  [n] is not checked. *)

val next_bool : t -> bool
(** Whether {!next}'s lowest bit is set — [Dist.bool]'s draw, unboxed. *)

val copy : t -> t

val split : t -> t
(** A fresh generator seeded from the next output of the argument, so that
    parallel chains derived from one seed remain independent and
    reproducible. *)

val state : t -> int64 array
(** The four state words, for checkpointing a generator mid-stream.  The
    returned array is fresh; mutating it does not affect [t]. *)

val of_state : int64 array -> t
(** Rebuild a generator from {!state}'s four words, continuing the exact
    output stream from the capture point.  Raises [Invalid_argument] on a
    wrong-length or all-zero state (xoshiro's one forbidden point). *)

(** SplitMix64 pseudo-random generator (Steele, Lea, Flood 2014).

    Fast, tiny state, passes BigCrush; used here both directly and to seed
    {!Xoshiro256}. *)

type t

val create : int64 -> t
(** Generator seeded with the given value. *)

val next : t -> int64
(** Next 64-bit output; advances the state. *)

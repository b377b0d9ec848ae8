(** Distributions layered over {!Xoshiro256}.

    Every sampler takes the generator explicitly so callers control
    determinism. *)

type gen = Xoshiro256.t

val bits64 : gen -> int64
(** Raw 64 bits. *)

val int : gen -> int -> int
(** [int g n] draws uniformly from [0, n) ; requires [n > 0]. *)

val bool : gen -> bool

val float : gen -> float -> float
(** [float g bound] draws uniformly from [[0, bound)]. *)

val uniform : gen -> float -> float -> float
(** [uniform g lo hi] draws uniformly from [[lo, hi)]. *)

val normal : gen -> mu:float -> sigma:float -> float
(** Gaussian sample (Box-Muller). *)

val choose : gen -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : gen -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : gen -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)


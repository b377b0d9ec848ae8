(** Basic descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean; raises [Invalid_argument] on an empty array. *)

val window_mean : float array -> pos:int -> len:int -> float
(** The mean of [a.(pos) .. a.(pos+len-1)], read in place: bit-identical
    to [mean (Array.sub a pos len)] (same ascending order of adds). *)

val variance : float array -> float
(** Unbiased (n-1) sample variance; [0.] for arrays shorter than 2. *)

val stddev : float array -> float

val min : float array -> float
val max : float array -> float

val quantile : float array -> float -> float
(** [quantile a p] with [p] in [0,1]; linear interpolation between order
    statistics.  Does not mutate its argument. *)

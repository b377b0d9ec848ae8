(** The validation proposal distribution of Eq. 16: each live-in float is
    perturbed by a Gaussian sample, discarding (per coordinate) any proposal
    that leaves the user-specified valid input range.  Ergodicity and
    symmetry follow from the normal distribution. *)

type t

val create : ?mu:float -> ?sigma:float -> Sandbox.Spec.t -> t
(** Defaults: the standard normal N(0, 1) used in the paper's evaluation. *)

val initial : Rng.Xoshiro256.t -> t -> float array
(** Uniform draw from the input ranges (the chain's starting test case). *)

val step_into :
  Rng.Xoshiro256.t -> t -> src:float array -> dst:float array -> unit
(** [step_into g t ~src ~dst] writes one proposal from [src] into [dst],
    drawing one Gaussian per coordinate in order.  [dst] must be at least
    as long as [src] and may be [src] itself. *)

val step : Rng.Xoshiro256.t -> t -> float array -> float array
(** {!step_into} a fresh vector; the argument is not mutated. *)

(** The validation proposal distribution of Eq. 16: each live-in float is
    perturbed by a Gaussian sample, discarding (per coordinate) any proposal
    that leaves the user-specified valid input range.  The step is
    zero-mean, so the proposal is symmetric and the hunt's Metropolis ratio
    needs no Hastings term; ergodicity follows from the normal
    distribution. *)

type t

val create : ?sigma:float -> Sandbox.Spec.t -> t
(** Steps drawn from N(0, σ²); the default σ = 1 is the standard normal
    of the paper's evaluation. *)

val initial : Rng.Xoshiro256.t -> t -> float array
(** Uniform draw from the input ranges (the chain's starting test case). *)

val step_into :
  Rng.Xoshiro256.t -> t -> src:float array -> dst:float array -> bool
(** [step_into g t ~src ~dst] writes one proposal from [src] into [dst],
    drawing one Gaussian per coordinate in order, and says whether any
    coordinate's bits changed: [false] means [dst] holds exactly [src]
    (every step left its range, or was lost to rounding).  [dst] must be
    at least as long as [src] and may be [src] itself.  Allocates
    nothing. *)

val step : Rng.Xoshiro256.t -> t -> float array -> float array
(** {!step_into} a fresh vector; the argument is not mutated. *)

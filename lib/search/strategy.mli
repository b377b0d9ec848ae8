(** Acceptance rules for the four stochastic search procedures compared in
    §6.4: pure random search, greedy hill-climbing, simulated annealing, and
    Metropolis-Hastings MCMC sampling. *)

type t =
  | Mcmc of { beta : float }
      (** Accept with probability min(1, exp(−β·Δc)) — Eq. 4. *)
  | Hill
      (** Accept iff the cost does not increase. *)
  | Anneal of {
      t0 : float;  (** initial temperature *)
      cooling : float;  (** per-iteration multiplicative decay *)
    }
  | Random_walk
      (** Always accept. *)

val accept_bound : t -> Rng.Xoshiro256.t -> iter:int -> float option
(** Draw the acceptance randomness {e before} cost evaluation and return
    the largest cost increase still accepted at this iteration: the
    proposal is accepted iff [delta <= bound] ([None] means accept
    everything; no randomness is consumed for [Hill] / [Random_walk]).
    For MCMC the bound is [−ln u/β] — the inversion of Eq. 4 — so the
    caller can turn it into an evaluation cutoff [c(R) + bound] and abort
    doomed evaluations early without changing the RNG stream between
    pruned and unpruned runs. *)

val accept_limit : t -> Rng.Xoshiro256.t -> iter:int -> current:float -> float
(** The same draw as {!accept_bound}, returned as the largest total still
    accepted: [current +. bound], or [infinity] for no bound.  Allocates
    no option. *)

val default_anneal : t
(** t0 = 1e12, cooling tuned to decay over ~1e6 iterations. *)

val to_string : t -> string
val of_string : string -> t option
(** Recognizes ["mcmc"], ["hill"], ["anneal"], ["rand"]. *)

val fingerprint : t -> string
(** Like {!to_string} but including the numeric parameters (hex-exact),
    so two strategies fingerprint equal iff they accept identically —
    what {!Snapshot} config fingerprints need. *)

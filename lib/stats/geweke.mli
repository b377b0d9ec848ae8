(** Geweke convergence diagnostic for a single MCMC chain (§5.3, Eq. 18/19).

    The chain is split into an early window (first [frac_a] of samples) and a
    late window (last [frac_b]); the Z statistic compares their means,
    normalized by spectral-density estimates of each window.  For a
    stationary chain, Z converges to a standard normal, so small |Z| is
    evidence of mixing. *)

type verdict = {
  z : float;  (** The Z statistic of Eq. 19. *)
  mean_a : float;
  mean_b : float;
  n : int;  (** Chain length used. *)
}

val z_statistic :
  ?frac_a:float -> ?frac_b:float -> ?len:int -> float array -> verdict
(** Defaults follow Geweke's convention: [frac_a = 0.1], [frac_b = 0.5].
    The chain is the array's first [len] samples (default: all of it);
    both windows are read in place, so a growing sample buffer needs no
    copy.  Raises [Invalid_argument] when the chain is too short for both
    windows (fewer than 20 samples) or [len] lies outside the array. *)

val converged : ?threshold:float -> verdict -> bool
(** [converged v] is [|v.z| < threshold]; [threshold] defaults to 1.96 (the
    two-sided 5% point of the standard normal). *)

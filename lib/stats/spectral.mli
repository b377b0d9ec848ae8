(** Spectral density estimation for MCMC convergence diagnostics.

    The Geweke statistic (Eq. 19 of the paper) needs an estimate of the
    spectral density of the chain at frequency zero, which accounts for the
    autocorrelation of successive samples.  We use the standard
    Bartlett-windowed sum of sample autocovariances, computed in place over
    a window of the chain with its mean taken once. *)

val autocovariance : float array -> int -> float
(** [autocovariance a k] is the lag-[k] sample autocovariance (biased,
    normalized by n). *)

val density_at_zero : ?max_lag:int -> float array -> float
(** Bartlett-window estimate of the spectral density at frequency zero.
    [max_lag] defaults to [floor (sqrt n)].  Clamped below at a tiny
    positive value so callers can divide by it. *)

val window_density :
  ?max_lag:int -> float array -> pos:int -> len:int -> mean:float -> float
(** [window_density a ~pos ~len ~mean] is
    [density_at_zero (Array.sub a pos len)], read in place, given the
    window's mean as {!Descriptive.window_mean} computes it.  Bit-identical
    to the one-lag-per-pass sum of {!autocovariance}s: several lags share a
    pass, but each lag's terms are still added in ascending order. *)

(** Spectral density estimation for MCMC convergence diagnostics.

    The Geweke statistic (Eq. 19 of the paper) needs an estimate of the
    spectral density of the chain at frequency zero, which accounts for the
    autocorrelation of successive samples.  We use the standard
    Bartlett-windowed sum of sample autocovariances, computed in place over
    a window of the chain with its mean taken once. *)

val window_density :
  ?max_lag:int -> float array -> pos:int -> len:int -> mean:float -> float
(** [window_density a ~pos ~len ~mean] is the Bartlett-window estimate of
    the spectral density at frequency zero of the window [a.(pos)] ..
    [a.(pos + len - 1)], given its mean as {!Descriptive.window_mean}
    computes it: [c0 + sum_{k=1..lag} 2 (1 - k/(lag+1)) c_k], with [c_k]
    the window's lag-[k] sample autocovariance (biased, normalized by
    [len]).  [max_lag] defaults to [floor (sqrt len)] and is clamped to
    [[0, len - 1]].  The result is clamped below at [1e-300] so callers
    can divide by it.

    Bit-identical to summing one lag per pass, each in ascending order,
    and adding the weighted terms in ascending lag: several lags share a
    pass, but each lag's terms are still added in that order.  Reads the
    window in place, centring it a few thousand samples at a time into a
    scratch buffer.  Raises [Invalid_argument] for fewer than 2 samples
    or a window outside [a]. *)

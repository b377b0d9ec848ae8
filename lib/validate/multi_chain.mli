(** Multi-chain validation: several independent max-error MCMC chains with
    the Gelman-Rubin R̂ diagnostic across them.

    Stronger evidence of mixing than the single-chain Geweke test (a chain
    stuck on one mode of the error function looks stationary to Geweke but
    inflates R̂ if its siblings found another mode), at proportional extra
    cost. *)

type config = {
  chains : int;  (** independent chains (≥ 2) *)
  proposals_per_chain : int;  (** ≥ 4, the shortest series R̂ accepts *)
  sigma : float;
  r_hat_threshold : float;
  seed : int64;
}

val default_config : config
(** 4 chains of 50k proposals, σ = 1, R̂ < 1.1. *)

type verdict = {
  max_err : Ulp.t;
  max_err_input : float array;
  r_hat : float;
  mixed : bool;
  per_chain_max : Ulp.t array;
  validated : bool;  (** mixed and max_err ≤ η *)
}

val run : ?obs:Obs.Sink.t -> ?config:config -> eta:Ulp.t -> Errfn.t -> verdict
(** Chains run sequentially, so one sink serves them all: events are
    tagged with a [chain] index ([chain_start], [chain_end]) and the
    final [multi_chain_end] event carries R̂ and the verdict (see
    [docs/TELEMETRY.md]).  Telemetry does not perturb the chains.  Each
    chain is one {!Driver.sample}.

    @raise Invalid_argument before running any chain if [chains < 2] or
    [proposals_per_chain < 4]. *)

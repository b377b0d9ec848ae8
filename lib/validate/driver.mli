(** MCMC validation (Eq. 15): sample the error function with
    Metropolis-Hastings to hunt for the input maximizing the ULP error
    between target and rewrite, terminating when the Geweke diagnostic says
    the chain has mixed.  The largest observed sample is the reported bound.

    This establishes strong evidence of correctness within η, not a formal
    proof (the paper's "validation" vs "verification" distinction).

    One hunt serves every entry point: {!run} (optionally refuting
    early), {!run_strategy}, and {!sample}, one chain of {!Multi_chain}.
    {!run} and {!run_strategy} stream telemetry through an optional
    {!Obs.Sink.t}
    ([validate_start], [val_new_max], [val_checkpoint], [geweke],
    [validate_end] — see [docs/TELEMETRY.md]).  Telemetry never touches
    the RNG, so verdicts are identical with or without a sink. *)

type config = {
  max_proposals : int;  (** hard iteration cap (the paper used 100M) *)
  min_samples : int;  (** don't test convergence before this many samples *)
  check_every : int;  (** Geweke test interval *)
  z_threshold : float;  (** |Z| below this counts as mixed *)
  sigma : float;  (** proposal standard deviation (Eq. 16) *)
  seed : int64;
  trace_points : int;
}

val default_config : config
(** 2M proposal cap, check every 50k from 100k on, |Z| < 0.5, σ = 1. *)

type trace_entry = {
  iter : int;
  best_err : float;
}

type verdict = {
  max_err : Ulp.t;  (** largest observed error *)
  max_err_input : float array;  (** the input exposing it *)
  validated : bool;  (** max_err ≤ η and the chain mixed *)
  mixed : bool;
  geweke_z : float;  (** last computed Z statistic *)
  iterations : int;
  trace : trace_entry list;
}

val run :
  ?obs:Obs.Sink.t -> ?config:config -> ?refute:bool -> eta:Ulp.t -> Errfn.t ->
  verdict
(** With [refute] (default false) the hunt also stops the moment the
    observed error exceeds η, without waiting for the chain to mix: a
    frontier demoting a candidate needs only the counterexample, not a
    tight bound, so the rest of the budget goes back to search.  Until
    that moment a refuting run visits exactly the samples a plain run
    visits; an initial point already above η ends it after 0
    iterations, and a refuted verdict is never [mixed]. *)

val run_strategy :
  ?obs:Obs.Sink.t ->
  ?config:config -> strategy:[ `Mcmc | `Hill | `Anneal | `Random ] ->
  eta:Ulp.t -> Errfn.t -> verdict
(** §6.4 comparison: the same max-error hunt under alternate acceptance
    rules (random restarts for [`Random], greedy for [`Hill], a decaying
    temperature for [`Anneal]). *)

val sample :
  sigma:float -> seed:int64 -> proposals:int -> Errfn.t ->
  Ulp.t * float array * float array
(** [proposals] Metropolis steps of {!run}'s hunt with no Geweke schedule
    and no telemetry, for {!Multi_chain}: the largest error seen, the
    input exposing it, and the chain's error series (the current error
    after each step). *)

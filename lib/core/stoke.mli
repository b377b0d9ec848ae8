(** STOKE-FP: stochastic optimization of floating-point programs with
    tunable precision — the high-level API.

    Typical use: pick (or define) a {!Sandbox.Spec.t} for a loop-free
    kernel, choose a precision budget η in ULPs, run {!optimize} to search
    for a faster η-correct rewrite, then {!validate} the result with the
    MCMC max-error hunt.  {!frontier} walks the η grid of the paper's
    Figures 4 and 5 ([~warm:false]) and of Figures 9 and 10. *)

val make_tests :
  ?n:int -> seed:int64 -> Sandbox.Spec.t -> Sandbox.Testcase.t array
(** Random test cases drawn from the spec's input ranges ([n] defaults
    to 32). *)

val optimize :
  ?config:Search.Optimizer.config ->
  ?tests:Sandbox.Testcase.t array ->
  ?obs:Obs.Sink.t ->
  ?progress_every:int ->
  eta:Ulp.t ->
  Sandbox.Spec.t ->
  Search.Optimizer.result
(** Optimization mode (k = 1): minimize latency subject to η-correctness on
    the test cases.  [obs] and [progress_every] are forwarded to
    {!Search.Optimizer.run}; telemetry never changes the result. *)

val optimize_parallel :
  ?config:Search.Optimizer.config ->
  ?tests:Sandbox.Testcase.t array ->
  ?domains:int ->
  ?obs:(chain:int -> Obs.Sink.t) ->
  ?orch_obs:Obs.Sink.t ->
  ?progress_every:int ->
  ?checkpoint:string * float ->
  ?resume:Search.Snapshot.t ->
  eta:Ulp.t ->
  Sandbox.Spec.t ->
  Search.Optimizer.result
(** {!optimize} through the {!Search.Parallel} orchestrator: independent
    chains on OCaml domains with the shared control plane (early-stop via
    [config.stop_when], deadlines via [config.deadline_s], crash
    isolation, and checkpoint/resume — see {!Search.Parallel.run} for the
    semantics of [checkpoint] and [resume]).  Tests and params are built
    exactly as {!optimize} builds them, so a snapshot taken here resumes
    here. *)

val validate :
  ?config:Validate.Driver.config ->
  ?obs:Obs.Sink.t ->
  ?engine:Sandbox.Exec.engine ->
  eta:Ulp.t ->
  Sandbox.Spec.t ->
  Program.t ->
  Validate.Driver.verdict
(** MCMC validation of a rewrite against the spec's target (Eq. 15).
    [engine] (default [Compiled]) selects the executor — all engines
    produce bit-identical verdicts ({!Validate.Errfn.create}). *)

val verify :
  ?taylor:Verify.Taylor.config ->
  eta:Ulp.t ->
  Sandbox.Spec.t ->
  Program.t ->
  Verify.Verifier.outcome
(** The static three-tier check (symbolic / Taylor branch-and-bound /
    interval), where applicable.  [taylor] tunes the branch-and-bound
    effort behind the Taylor tier (see {!Verify.Bbound.config}). *)

val static_prover :
  ?taylor:Verify.Taylor.config ->
  Sandbox.Spec.t ->
  eta:Ulp.t ->
  Program.t ->
  Search.Frontier.proof option
(** {!verify} reduced to the frontier's injected-prover shape: [Some]
    when the strongest applicable static tier certifies the rewrite
    within η ([sound_ulps] 0 for a bit-wise proof), [None] otherwise. *)

type refined = {
  rewrite : Program.t option;  (** [None] if every round came up empty *)
  verdict : Validate.Driver.verdict option;
      (** the accepted rewrite's validation (None with the rewrite when the
          round budget ran out before a validated rewrite appeared) *)
  rounds : int;
  counterexamples : int;  (** inputs fed back into the test set *)
}

val optimize_refined :
  ?config:Search.Optimizer.config ->
  ?validation:Validate.Driver.config ->
  ?max_rounds:int ->
  ?tests:int ->
  ?obs:Obs.Sink.t ->
  seed:int64 ->
  eta:Ulp.t ->
  Sandbox.Spec.t ->
  refined
(** The two-tier loop of Eq. 5, run to refinement: search with the fast
    test-case check; when the best rewrite passes, hunt for a
    counterexample with MCMC validation; if one is found with error
    exceeding η, add it to the test set and search again (up to
    [max_rounds], default 4).  Returns the first rewrite validation fails
    to refute.  This is how test-case-driven optimizations become
    trustworthy without formal verification.

    [obs] receives the interleaved search and validation streams, plus a
    [refine_round] event opening each round and a [counterexample] event
    for every input fed back into the test set. *)

val default_etas : Ulp.t list
(** The paper's grid: η = 10^0, 10^2, …, 10^18. *)

val frontier :
  ?config:Search.Optimizer.config ->
  ?validation:Validate.Driver.config ->
  ?validate_results:bool ->
  ?etas:Ulp.t list ->
  ?tests:int ->
  ?warm:bool ->
  ?warm_frac:float ->
  ?max_demotions:int ->
  ?sound_promote:bool ->
  ?taylor:Verify.Taylor.config ->
  ?obs:Obs.Sink.t ->
  ?checkpoint:string ->
  ?resume:Search.Frontier.snapshot ->
  seed:int64 ->
  Sandbox.Spec.t ->
  Search.Frontier.result
(** The whole speedup-vs-η curve in one run ({!Search.Frontier.run} wired
    to real validation).  With [warm] (default), the η grid is walked
    tight-to-loose, each point's chain seeded from the neighbouring η's
    winner ([warm_frac] of [config.proposals] per warm point; the first
    point gets the full budget), and each candidate is checked by a
    {e refuting} MCMC validator ({!Validate.Driver.run} with [~refute:true])
    — a candidate whose error clears η is demoted on the spot, its
    counterexample joins the test set, and search resumes from the
    frontier (up to [max_demotions] rounds).  [validate_results] defaults
    to [true] here (the curve's whole point is per-η validated error);
    pass [false] for a search-only curve.  With [warm = false] every
    point runs cold, in the caller's grid order, with the full budget and
    the full (non-refuting) hunt, and is never demoted: one search per η,
    the curve of Figures 4(a–c) and 5(a).  When a search finds no
    η-correct rewrite no slower than the target, the point reports the
    target itself (speedup 1.0).  With [sound_promote]
    (default false) the {!static_prover} runs before every validation: a
    candidate whose sound static bound is ≤ η is promoted without
    spending any MCMC budget (a [sound_promotion] telemetry event marks
    each one, and the result counts them in [promotions]); [taylor]
    tunes the prover's branch-and-bound effort.  Promotion changes the
    snapshot fingerprint, so promotion-off runs keep reading historical
    checkpoints.  [checkpoint]/[resume] persist the walk across
    interruptions (see {!Search.Frontier.snapshot}). *)

val error_curve :
  Sandbox.Spec.t -> Program.t -> inputs:float array -> Ulp.t array
(** err(R; T, x) over a 1-D input grid (Figures 4(d–f), 5(b)); the spec
    must have arity 1. *)

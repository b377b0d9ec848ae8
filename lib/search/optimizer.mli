(** The STOKE search loop: repeated proposal, evaluation, and
    accept/reject, tracking the best η-correct rewrite found.

    The driver is strategy-parameterized (Metropolis-Hastings by default)
    and records a best-cost trace at logarithmically spaced checkpoints for
    the §6.4 comparison plots.

    Every entry point takes an optional {!Obs.Sink.t} and streams the
    events documented in [docs/TELEMETRY.md] ([search_start],
    [chain_start], [checkpoint], [progress], [search_end]) through it.
    Telemetry is read-only: it never touches the RNG or the accept
    decision, so a run with a sink attached returns exactly the result
    of the same run without one, and with the default null sink the
    instrumentation costs one branch per checkpoint. *)

type config = {
  proposals : int;  (** total proposals (the paper uses 10M) *)
  strategy : Strategy.t;
  seed : int64;
  padding : int;  (** extra [Unused] slots appended to the initial rewrite *)
  restarts : int;  (** independent chains run sequentially; best kept *)
  trace_points : int;  (** number of log-spaced trace checkpoints *)
  prune : bool;
      (** pass the acceptance bound to {!Cost.eval} as a cutoff so doomed
          evaluations abort early (STOKE '13's early-termination trick),
          and pass each one-slot move so a dead write is priced without
          running the tests ({!Cost.eval_move}).  Never changes the result —
          the winning rewrite is bit-identical with pruning on or off —
          only how many test cases run. *)
  engine : Sandbox.Exec.engine;
      (** which execution engine evaluates proposals.  The search itself
          runs whatever context it is given; this field is how callers
          that build the context from a config ({!Stoke}, {!Parallel})
          select the engine.  Like [prune], it never changes the result —
          both engines are bit-identical — only how fast proposals
          evaluate. *)
  static_screen : bool;
      (** reject proposals that read a location neither the kernel's
          inputs nor an earlier slot defined ([Analysis.Screen]) before
          any test case runs.  Unlike [prune]/[engine] this skips the
          acceptance-bound RNG draw for rejected proposals, so a screened
          search follows a different random stream than an unscreened one
          — each is still deterministic per seed and bit-identical across
          engine and prune settings. *)
  stop_when : Control.stop_policy;
      (** cooperative early-stop policy, polled off the hot path every
          {!Control.poll_interval} proposals.  [Exhaust] (the default)
          never stops early and allocates no control plane at all. *)
  deadline_s : float option;
      (** wall-clock budget for the whole run (all restarts), measured
          from the moment the control plane is created.  The deadline
          interrupts at the next poll point, so the effective resolution
          is one poll interval's worth of proposals. *)
}

val default_config : config
(** 200k proposals, MCMC with β = 1, seed 1, padding 4, 1 restart,
    pruning on, compiled engine, static screen on, exhaust (no early
    stop), no deadline. *)

type trace_entry = {
  iter : int;
  best_total : float;
  current_total : float;
}

(** Per-move-kind telemetry: how often each of the paper's four proposals
    was drawn and how often it was accepted. *)
type move_stats = {
  proposed : int array;  (** indexed by {!Transform.kind} order *)
  accepted_by_kind : int array;
}

type result = {
  best_correct : Program.t option;
      (** lowest-latency rewrite with [eq = 0] on all tests, after DCE *)
  best_correct_cost : Cost.cost option;
  best_overall : Program.t;  (** lowest total cost seen (before DCE) *)
  best_overall_cost : Cost.cost;
  trace : trace_entry list;  (** checkpoints, ascending iteration *)
  proposals_made : int;
  accepted : int;
  evaluations : int;
  tests_executed : int;
      (** test-case program runs charged to the cost context *)
  pruned_evals : int;  (** evaluations aborted early by the cutoff *)
  cache_hits : int;  (** evaluations answered from the cost cache *)
  elided : int;
      (** evaluations answered by dead-write elision ({!Cost.eval}'s [move]),
          with no test run; 0 with [prune] off *)
  engine_counters : Sandbox.Engine.counters;
      (** the engine's work: programs prepared, test-case runs on the
          selected engine and on its batched fallback, worker respawns *)
  static_rejects : int;
      (** proposals rejected by the static undef-read screen, before any
          cost evaluation *)
  minor_words : float;
      (** words this run allocated on its domain's minor heap
          ({!Gc.minor_words}), telemetry included; [minor_words /.
          proposals_made] is the per-proposal figure the events and
          [--metrics] report.  The one counter here that a sink can move.
          Building the move pools ({!Pools.make}) is not counted, so the
          figure does not depend on the searches run before it *)
  moves : move_stats;
  stop_reason : Control.stop_reason;
      (** why the run ended: [Exhausted] for a full-budget run, otherwise
          the reason the control plane requested the stop.  A stopped run
          still returns every field above, valid for the work done. *)
  failed_chains : int;
      (** always 0 here; {!Parallel.run} fills it with the number of
          domains whose chain crashed *)
}

(** The counter fields ([evaluations] … [minor_words]) are {e anchored}:
    they count this run's work only, matching the [search_end] telemetry,
    even when the same {!Cost.t} context (and its monotonically growing
    counters) is reused across several runs. *)

val per_proposal : float -> int -> float
(** [per_proposal words proposals]: the [minor_words_per_proposal] figure
    of the events and [--metrics] (0 before the first proposal). *)

val kind_index : Transform.kind -> int
(** Index into {!move_stats} arrays. *)

val moves_json : move_stats -> Obs.Json.t
(** The per-kind [{proposed, accepted}] object embedded in [search_end]
    events, for callers assembling their own metrics dumps. *)

val engine_json : Sandbox.Exec.engine -> Sandbox.Engine.counters -> Obs.Json.t
(** The [engine] object of [checkpoint]/[search_end] events and
    [--metrics]: the engine's name and its counters. *)

val run :
  ?obs:Obs.Sink.t ->
  ?progress_every:int ->
  ?control:Control.t ->
  ?chain_id:int ->
  ?resume:Control.chain_pub ->
  Cost.t ->
  config ->
  result
(** Starts each chain from the target (STOKE's optimization mode).
    [obs] receives the telemetry stream; [progress_every:n] additionally
    emits a [progress] event every [n] proposals (for live monitoring at
    a fixed cadence, on top of the log-spaced [checkpoint]s).

    [control] shares a {!Control.t} across several concurrent runs (the
    {!Parallel} orchestrator); when absent, one is created internally iff
    [config.stop_when] or [config.deadline_s] asks for it — an [Exhaust] /
    no-deadline run has no control plane and behaves exactly as before.
    [chain_id] is this run's slot in the shared control plane (default 0).
    [resume] continues a previous run from a {!Control.chain_pub}
    publication (normally out of a {!Snapshot}): the interrupted restart
    picks up mid-stream from its captured RNG state, later restarts split
    from the captured master, so resuming an [Exhaust] run reproduces the
    uninterrupted winner bit-identically. *)

val run_from :
  ?obs:Obs.Sink.t ->
  ?progress_every:int ->
  ?control:Control.t ->
  ?chain_id:int ->
  ?resume:Control.chain_pub ->
  Cost.t ->
  config ->
  Program.t ->
  result
(** Starts from a given rewrite instead. *)

val warm_pub :
  config ->
  rng:int64 array ->
  master_rng:int64 array ->
  ?best_correct:Program.t ->
  Program.t ->
  Control.chain_pub
(** A synthetic {!Control.chain_pub} that warm-starts {!run_from} from
    [init] with explicit RNG state: restart 1, iteration 0, zeroed
    counters, and [init] padded to [config.padding] as the current
    program (the resume path deliberately never re-pads).  [rng] seeds
    the chain itself and [master_rng] the restart master — thread a
    generator's {!Rng.Xoshiro256.state} through consecutive runs to keep
    warm-started chains on one reproducible stream.  Pass [best_correct]
    only when [init] is known η-correct under the target context, so the
    search's incumbent matches what the cost function would say. *)

val synthesize :
  ?obs:Obs.Sink.t -> ?progress_every:int -> Cost.t -> config -> slots:int ->
  result
(** STOKE's synthesis mode (§2.2): start from the {e empty} rewrite of
    [slots] unused slots and search for any program equivalent to the
    target.  Callers normally pass a context whose [k] is 0 so the perf
    term does not distract the search; the best correct rewrite (if any)
    is still DCE'd and reported as in {!run}. *)

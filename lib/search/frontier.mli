(** η-sweep Pareto frontier with warm-started chains.

    The paper's headline curve (speedup vs η, Figs. 9/10) costs
    |η-grid| × full-search time when every point restarts cold.  This
    driver walks the grid tight-to-loose in {e one} run, seeding each
    η's chain from the neighbouring η's winner via {!Optimizer.run_from}
    with an explicit RNG-state handoff ({!Optimizer.warm_pub}): a rewrite
    that is correct within a tight η is correct within every looser η on
    the same tests, so each warm point starts from an incumbent instead
    of the target and needs only a fraction of the cold budget.

    Validation is interleaved rather than deferred: after each point's
    search, the injected {!validator} hunts for a counterexample; a
    candidate whose validated error exceeds η is {e demoted} — the
    counterexample joins the test set and search resumes from the
    frontier (the still-trusted incumbent) instead of restarting cold.
    Counterexamples also propagate {e backward}: every already-settled
    point is re-checked on the new input at its own η, and a settled
    rewrite the input refutes is evicted back to the target (demotions
    count it, and a [frontier_backprop] event records it) — earlier
    points were validated against a test set that never contained the
    input, so their bounds deserve no more trust than the candidate's.

    The driver lives in [lib/search] and therefore cannot call
    [lib/validate] (dependencies point strictly downward); callers inject
    validation as a closure.  {!Stoke.frontier} wires in the MCMC
    validator; [validator = None] skips validation entirely.

    With [warm = false] the walk is the per-point sweep of the paper's
    Figures 4–5: each η runs {!Optimizer.run} cold on the caller's grid
    order with the caller's full budget, no demotion, no RNG threading. *)

type check = {
  observed_err : Ulp.t;  (** largest error the validator observed *)
  refuted : bool;  (** observed error exceeded η *)
  mixed : bool;  (** the validation chain mixed (bound trustworthy) *)
  val_iterations : int;
  counterexample : float array option;
      (** the refuting input, when [refuted] *)
}

type validator = eta:Ulp.t -> Program.t -> check

type proof = {
  sound_ulps : float;  (** certified scaled-ULP bound, ≤ η *)
  boxes_explored : int;  (** branch-and-bound effort behind the proof *)
  depth : int;
}

type prover = eta:Ulp.t -> Program.t -> proof option
(** A sound static analysis: [Some proof] certifies the rewrite's output
    difference is at most [proof.sound_ulps] ≤ η on {e every} in-range
    input, so the point can be promoted without MCMC validation.  Like
    the validator, it is injected by the caller ([lib/search] cannot call
    [lib/verify]); {!Stoke.frontier} wires in {!Verify.Verifier.check}. *)

type point = {
  eta : Ulp.t;
  rewrite : Program.t;
  loc : int;
  latency : int;
  speedup : float;  (** target latency / rewrite latency *)
  validated_err : Ulp.t option;  (** [None] when validation was skipped *)
  warm : bool;  (** seeded from a neighbouring η's winner *)
  proposals_used : int;  (** search proposals spent on this point *)
  demotions : int;  (** validation failures suffered at this point *)
}

type config = {
  search : Optimizer.config;
      (** per-point search configuration; [proposals] is the {e cold}
          per-point budget *)
  warm : bool;  (** warm-start from the neighbouring η (default true) *)
  warm_frac : float;
      (** fraction of [search.proposals] granted to each warm-started
          point (default 0.25); the first point always gets the full
          budget *)
  max_demotions : int;
      (** re-search rounds after a validation failure before falling
          back to the frontier incumbent (default 2) *)
}

val default_config : config

type result = {
  points : point list;  (** one per η, in walk order *)
  pareto : point list;
      (** the non-dominated (latency, error-bound) subset of [points],
          latency-ascending *)
  total_proposals : int;  (** search proposals spent across the run *)
  cold_budget : int;  (** |etas| × [search.proposals] for comparison *)
  demotions : int;
  tests_added : int;  (** counterexamples fed back into the test set *)
  promotions : int;
      (** points settled by a sound static proof instead of validation *)
}

val err_bound : point -> Ulp.t
(** The point's validated error when present, else its η budget (search
    guarantees error ≤ η on the test cases only — a weaker bound). *)

val dominates : point -> point -> bool
(** [dominates a b] iff [a] is no worse than [b] on both latency and
    {!err_bound} and strictly better on at least one. *)

val pareto_insert : point list -> point -> point list * point list
(** [pareto_insert set p] is [(set', dropped)]: [p] joins [set] unless a
    member dominates it (or ties it exactly), and members [p] dominates
    move to [dropped].  The returned set never retains a dominated
    point. *)

(** {2 Checkpoint/resume}

    A frontier snapshot records the walk position: completed points, the
    threaded master-RNG state, and the counterexamples added so far.
    Resuming replays none of the finished searches — the walk continues
    at the next η with the exact RNG stream the interrupted run would
    have used.  The fingerprint covers everything trajectory-determining
    {e except} the η grid itself (the completed points are checked to be
    a prefix of the requested walk instead, so a resumed run may extend
    the grid loose-ward). *)

type snapshot = {
  version : int;
  fingerprint : string;
  next : int;  (** index into the walk of the next η to search *)
  carry_rng : int64 array option;  (** threaded master-RNG state *)
  snap_total_proposals : int;
  snap_demotions : int;
  snap_points : point list;  (** completed points, walk order *)
  extra_tests : float array list;
      (** counterexample inputs appended to the test set, oldest first *)
}

val snapshot_version : int

val fingerprint :
  config -> spec:Sandbox.Spec.t -> tests:Sandbox.Testcase.t array -> string

val snapshot_to_json : snapshot -> Obs.Json.t

val snapshot_of_json :
  spec:Sandbox.Spec.t -> Obs.Json.t -> (snapshot, string) Stdlib.result
(** [spec] rebuilds each point's latency/speedup from its rewrite (costs
    are never serialized; recomputation is deterministic). *)

val write_snapshot : path:string -> snapshot -> unit
(** Atomic (tmp + rename), like {!Snapshot.write}. *)

val read_snapshot :
  spec:Sandbox.Spec.t -> path:string -> (snapshot, string) Stdlib.result

val run :
  ?obs:Obs.Sink.t ->
  ?validator:validator ->
  ?prover:prover ->
  ?checkpoint:string ->
  ?resume:snapshot ->
  tests:Sandbox.Testcase.t array ->
  etas:Ulp.t list ->
  config ->
  Sandbox.Spec.t ->
  result
(** Walk the grid.  [etas] is sorted tight-to-loose for the warm walk
    and taken in caller order when [config.warm] is false.  Raises
    [Invalid_argument] before any search when [etas] is empty,
    [config.warm_frac] is not in (0, 1] or [config.max_demotions] is
    negative.  [checkpoint] names
    a file rewritten atomically after every settled point; [resume] continues from a snapshot read back
    with {!read_snapshot} (raises [Invalid_argument] on a fingerprint
    mismatch or when the completed points are not a prefix of this
    walk).  When a [prover] is injected it runs before the validator at
    every settling site; a successful proof settles the point with the
    certified bound as its error, emits a [sound_promotion] event, and
    spends no validation budget.  The snapshot fingerprint carries a
    marker iff a prover is present, so promotion-off runs keep reading
    historical snapshots bit-identically.  Telemetry ([frontier_start],
    [frontier_point], [frontier_promote], [frontier_demote],
    [sound_promotion], [frontier_end] — see [docs/TELEMETRY.md]) never
    changes the result. *)

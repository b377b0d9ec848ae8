(** The paper's cost function (Eq. 2, 9–11), with early termination.

    [eval] compares the rewrite's live outputs against the target's
    precomputed outputs on every test case, charging
    [max(0, ULP(f_R, f_T) − η)] per live-out location plus a large penalty
    for divergent signal behaviour, and reduces across test cases with
    [max] (§5.2; saturating, so costs never overflow).  The total cost is
    [eq + k·perf] where [perf] is the static latency sum of the rewrite.

    Signal behaviour is scored symmetrically: a test where the {e target}
    faults is recorded at {!create}, and a rewrite that faults on the same
    test matches the target — cost 0 — while one that runs to completion
    there diverges and pays [ws].

    Four mechanisms keep the search's inner loop off the test-case
    treadmill, all transparent to results:

    - {b Cutoff}: [eval ?cutoff] aborts the test loop as soon as the
      accumulated [eq] plus the (statically known) perf term provably
      exceeds [cutoff], returning {!Pruned}.  The caller derives the
      cutoff from the acceptance rule (the Metropolis bound
      [c(R) − ln u/β] with the uniform sample drawn up front), so a
      pruned evaluation is exactly a rejected proposal.  Sound under
      both reductions: the running [Max] is exact, and a running [Sum]
      of non-negative terms is a monotone lower bound on the final sum
      computed in the same (pinned, see below) order.  Under the
      whole-batch engines (batched, native) the cutoff also acts at
      batch granularity: a lane fault that provably forces rejection
      aborts the whole proposal ({!Sandbox.Engine.Aborted}).
    - {b Adaptive test order}: the test that triggered an abort moves to
      the front of a per-context permutation, so discriminating tests run
      first.  Order never changes results — the [Max] reduction is
      order-independent — and contexts share no state across domains.
      Under [Sum] reduction the order stays pinned (reordering a float
      sum could change it), which is also what makes the running-sum
      cutoff a sound lower bound.
    - {b Cost cache}: a small direct-mapped cache keyed by {!Facts.key}
      (verified with [Program.equal], so hits are exact) short-circuits
      re-proposed rewrites without touching the sandbox.
    - {b Dead-write elision}: told the one-slot move that made the
      proposal ({!eval_move}), it prices a move whose old and new
      instruction cannot fault and write only locations dead after the
      slot without running anything: every test's outcome is the
      previous program's, so only the perf term changes.

    The error metric and the reduction operator are configurable to support
    the ablation benches (ULP vs absolute vs relative error; max vs sum). *)

type metric =
  | Ulp_metric
  | Abs_metric  (** |a−b| scaled into ULP-comparable units *)
  | Rel_metric
      (** |a−b|/|a| scaled into ULP-comparable units; an exact (bitwise)
          match is zero error, and a zero expected value falls back to the
          ULP metric instead of dividing by zero *)

type reduction =
  | Max
  | Sum

(** How the [perf] term prices a rewrite. *)
type perf_model =
  | Sum_latency  (** serial latency sum — STOKE's approximation *)
  | Critical_path  (** longest dependence chain ({!Critical_path}) *)

type params = {
  eta : Ulp.t;  (** minimum unacceptable ULP rounding error *)
  k : float;  (** weight of the perf term; 0 = synthesis mode *)
  ws : float;  (** weight of divergent signal behaviour *)
  metric : metric;
  reduction : reduction;
  perf_model : perf_model;
}

val default_params : eta:Ulp.t -> params
(** k = 1.0, ws = 1e18, ULP metric, max reduction, latency-sum perf. *)

type t
(** Evaluation context: spec, test cases, the target's expected outputs
    (and fault behaviour), the adaptive test order, the cost cache, and
    reusable machines. *)

val create :
  ?use_cache:bool ->
  ?engine:Sandbox.Exec.engine ->
  ?instance:Sandbox.Engine.t ->
  Sandbox.Spec.t ->
  params ->
  Sandbox.Testcase.t array ->
  t
(** Runs the target on every test case, through the reference
    interpreter, to record its outputs (or its fault behaviour — a
    faulting target is recorded, not rejected).  [use_cache] (default
    [true]) enables the proposal cost cache.  [engine] (default
    [Compiled]) selects how proposals execute ({!Sandbox.Engine}); all
    engines produce bit-identical costs.  [instance] overrides [engine]
    with an explicit engine instance. *)

val spec : t -> Sandbox.Spec.t
val params : t -> params
val tests : t -> Sandbox.Testcase.t array
val engine : t -> Sandbox.Exec.engine

val facts : t -> Facts.t
(** The context's slot table.  {!eval} refreshes it with the program it
    scores and reads the cache key ([Facts.key]), the [Sum_latency]
    perf term ([Facts.latency]) and, on the compiled engine, the dense
    steps it runs from it; the optimizer's undef-read screen shares it
    ([Analysis.Screen.env_of_spec ~facts]).  Like the context, it
    belongs to one domain.  The search updates it once per proposal
    from the move ([Facts.move]/[Facts.swap], and [Facts.revert] after
    an undo) and passes [~refreshed:true] to the screen and to
    {!eval}. *)

type cost = {
  eq : float;  (** 0 when the rewrite is η-correct on every test *)
  perf : float;
  total : float;
  signals : int;  (** test cases on which the rewrite signalled *)
  max_ulp : Ulp.t;  (** worst per-location ULP error observed *)
}

(** How far a cutoff evaluation got before the partial cost provably
    exceeded the bound. *)
type pruned = {
  tests_run : int;  (** test cases executed before aborting (≥ 1); the
                        whole-batch engines run every lane, so this is
                        always the full test count there *)
  eq_partial : float;  (** accumulated eq at the abort — a lower bound *)
}

type verdict =
  | Evaluated of cost
  | Pruned of pruned

val eval : ?cutoff:float -> ?refreshed:bool -> t -> Program.t -> verdict
(** Without [cutoff] this always returns [Evaluated] with the full cost.
    With [cutoff] it returns [Pruned] as soon as [eq + k·perf > cutoff]
    is provable — under [Max] because the running max is exact, under
    [Sum] because a partial sum of non-negative terms accumulated in
    the pinned evaluation order is a monotone lower bound — guaranteeing
    the full total would also exceed [cutoff], bit-for-bit the same
    comparison the caller would make.

    [refreshed] (default [false]): the context's table already describes
    [program] (the caller refreshed it, or updated it from the move that
    made [program]), so [eval] does not walk it. *)

val eval_move :
  ?refreshed:bool ->
  cutoff:float ->
  before:cost ->
  slot:int ->
  old:Program.slot ->
  t ->
  Program.t ->
  verdict
(** {!eval} of a program that differs from one whose full cost is
    [before] only at [slot], which held [old]; [cutoff] is [infinity]
    for none.  On a cache miss where {!Facts.dead_write} holds for the
    spec's live-out locations, no test runs: the result is [before] with
    [perf] and [total] repriced — bit for bit the full cost — counted in
    {!elided} and stored in the cost cache.  It allocates no option or
    record: the search calls it for each one-slot move under pruning. *)

val eval_full : t -> Program.t -> cost
(** [eval] with no cutoff, unwrapped. *)

val evaluations : t -> int
(** Number of [eval] calls so far (including cache hits). *)

val tests_executed : t -> int
(** Test-case program runs so far (what pruning and caching save). *)

val pruned_evals : t -> int
(** Evaluations aborted early by a cutoff. *)

val cache_hits : t -> int
(** Evaluations answered from the cost cache without running anything. *)

val elided : t -> int
(** Evaluations answered by dead-write elision (see {!eval_move})
    without running anything. *)

val engine_counters : t -> Sandbox.Engine.counters
(** The engine's work so far: programs prepared, test-case runs on the
    engine and on its fallback, worker respawns. *)

val correct : cost -> bool
(** [eq = 0.] *)

(** First-order Taylor-form round-off analysis of the difference between a
    target and a rewrite (FPTaylor-style).

    Both programs' symbolic output terms are lifted into one shared
    real-valued DAG in which every rounded operation [op] carries an
    explicit perturbation: the computed value is modeled as
    [op(a, b) + e] with [|e| ≤ u·|op(a, b)| + d] ([u] the unit round-off
    and [d] the denormal bound of the operation's precision).  Because the
    DAG is hash-consed, a subexpression computed by both programs is one
    node with one perturbation — exactly matching hardware, where both
    programs round the shared intermediate identically — so shared work
    cancels instead of double-counting.

    By the mean value theorem, for each output pair

    {v |target − rewrite| ≤ |Δ(x)| + Σᵢ sup|∂Δ̂/∂eᵢ| · (uᵢ·|rᵢ| + dᵢ) }

    where [Δ̂] is the perturbed difference, the supremum ranges over the
    input box and the whole perturbation cube (which absorbs all
    higher-order terms — no explicit second-order remainder is needed),
    [rᵢ] is the pre-rounding enclosure of node [i], and [Δ(x)] is the
    *real* (perturbation-free) difference.  The adjoints [∂Δ̂/∂eᵢ] are
    computed by interval-valued reverse-mode differentiation; [Δ(x)] is
    normalized into a polynomial over division/sqrt/min/max atoms with
    exactness-checked coefficient arithmetic, so reassociations and
    distributions cancel exactly instead of suffering interval dependency
    blow-up.  The whole objective is inclusion-monotone, so {!Bbound}
    subdivision of the input box tightens it soundly.

    The resulting bound is converted to scaled ULPs at the target output's
    maximum magnitude, the same currency {!Interval.static_ulp_bound} and
    η use. *)

type config = Bbound.config

val default_config : config

type analysis = {
  sound_ulps : float;
      (** sound upper bound on the output difference, in scaled ULPs at
          the target's output magnitude *)
  proved_real_equal : bool;
      (** the real-arithmetic difference cancelled to the empty
          polynomial: target and rewrite compute the same real function,
          and the bound is pure round-off *)
  target_range : Interval.itv;
  boxes_explored : int;
  depth : int;
}

val bound :
  ?config:config ->
  Sandbox.Spec.t ->
  Symbolic.pair ->
  (analysis, string) Stdlib.result
(** [Error] when an output depends on a bit-level operation or on an
    input the spec leaves unconstrained. *)

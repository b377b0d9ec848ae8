(** The error function of Eq. 13: total ULP distance between the target's
    and rewrite's live outputs on one test case, with divergent signal
    behaviour charged a value larger than any η. *)

type t

val create :
  ?engine:Sandbox.Exec.engine ->
  ?instance:Sandbox.Engine.t ->
  Sandbox.Spec.t ->
  rewrite:Program.t ->
  t
(** [engine] (default [Compiled]) selects the executor
    ({!Sandbox.Engine}); [instance] overrides it with an explicit engine
    instance.  The target and the rewrite are each prepared once here and
    run per evaluation on one machine, which holds the spec's fixed
    inputs; each call stores the float inputs' bits straight into its
    registers and arena, exactly as installing
    {!Sandbox.Spec.testcase_of_floats} would, and scores the outputs from
    their raw bits, so an evaluation allocates no testcase and no output
    values.  All engines produce bit-identical errors.  Raises
    [Invalid_argument] if a memory input lies outside the arena. *)

val eval : t -> float array -> float
(** [eval e xs] evaluates the error on the test case assembled from the
    float-input vector [xs].  ULP sums saturate; divergent signals return
    [top_eta].  Raises [Invalid_argument] unless [xs] has one float per
    float input of the spec. *)

val eval_ulp : t -> float array -> Ulp.t
(** Same, as an exact unsigned ULP count ({!Ulp.max_value} for divergent
    signal behaviour). *)

val eval_into : t -> float array -> Bytes.t -> unit
(** [eval_into e xs out] stores {!eval_ulp}'s count in [out]'s first 8
    bytes, little-endian: the evaluator of {!Driver}'s samples, which
    allocates nothing on the compiled engine, where a returned count
    would be boxed.  Raises [Invalid_argument] as {!eval} does. *)

val eval_both : t -> float array -> float * Ulp.t
(** [(eval e xs, eval_ulp e xs)] from a {e single} pair of executions —
    what {!Driver} wants, since it needs the float error for the accept
    rule and the exact count for max tracking on every input.  Calling
    [eval] and [eval_ulp] separately runs each program twice. *)

val top_eta : float
(** The >η sentinel: 2^64, strictly above every representable ULP count. *)

val spec : t -> Sandbox.Spec.t

(** The static correctness check of Eq. 5/12, now three tiers deep.

    [check] executes the target and the rewrite symbolically once
    ({!Symbolic.exec_pair}) and tries the sound techniques on those terms
    in order of strength — bit-wise equivalence, Taylor-form round-off
    analysis with branch-and-bound ({!Taylor}), then plain interval
    abstract interpretation ({!Interval}) — and reports the strongest one
    that applied.  Kernels mixing fixed- and floating-point computation defeat
    the numeric tiers (as the paper's libimf and S3D kernels do), in which
    case the caller falls back to MCMC validation. *)

type outcome =
  | Proved_bitwise
      (** symbolic UF terms normalize identically: equal on every input *)
  | Refuted_bitwise
      (** terms differ — programs are not bit-wise equivalent (they may
          still be η-close) *)
  | Taylor_bound of Taylor.analysis
      (** bit-wise proof failed or inapplicable, but the first-order
          round-off analysis soundly bounded the output difference;
          [sound_ulps] is clamped to never exceed the interval tier's
          bound when both apply *)
  | Static_bound of Interval.analysis
      (** only the coarse interval tier applied *)
  | Not_verifiable of string
      (** a program leaves the symbolic executor's fragment, so no static
          technique applies; use validation *)

val check :
  ?taylor:Taylor.config ->
  Sandbox.Spec.t ->
  rewrite:Program.t ->
  eta:Ulp.t ->
  outcome

val verified_within : outcome -> Ulp.t -> bool
(** Does the outcome establish equivalence within the given η? *)

val sound_ulps : outcome -> float option
(** The sound scaled-ULP bound the outcome certifies, if any ([Some 0.]
    for a bit-wise proof). *)

val tier_name : outcome -> string
(** The tier that certified the outcome: ["bitwise"], ["taylor"],
    ["interval"], or ["-"] when none did. *)

val outcome_to_string : outcome -> string

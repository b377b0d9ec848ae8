(** The search's cost function as it scored outputs before it read raw
    register bits: each finishing run's outputs read as
    {!Sandbox.Spec.value}s ({!Sandbox.Spec.read_outputs}), distances
    through {!Sandbox.Spec.value_ulp}, errors through the value-level
    [location_error].  Kept verbatim as the reference the raw-bit scorer
    of [Search.Cost] must agree with bit for bit. *)

val score :
  Search.Cost.params ->
  expected:Sandbox.Spec.value array option array ->
  actual:Sandbox.Spec.value array option array ->
  perf:float ->
  Search.Cost.cost
(** [score params ~expected ~actual ~perf]: the full cost over the tests
    in index order; [expected.(i)] is the target's outputs on test [i]
    ([None] where it signalled), [actual.(i)] the rewrite's. *)

val outputs :
  Sandbox.Spec.t -> Program.t -> Sandbox.Testcase.t -> Sandbox.Spec.value array option
(** One interpreted run of the program on a fresh machine holding the
    test: its outputs, or [None] if it faulted. *)

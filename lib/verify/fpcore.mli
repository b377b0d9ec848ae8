(** FPCore 1.2 export of the verification obligation.

    [difference] renders the symbolic output difference target − rewrite
    as one [(FPCore …)] form per spec output, suitable for external
    round-off tools (FPBench, Daisy, FPTaylor, Herbie).  It reads the
    terms through {!Symbolic.fold}, as {!Taylor} does: binary64
    arithmetic in the binary64 context, binary32 operations wrapped in
    [(! :precision binary32 …)], a narrowing conversion as an annotated
    [cast], and exact operations (min/max, widening conversions) left
    unannotated.
    Input ranges from the spec become a [:pre] conjunction of chained
    comparisons; memory-cell inputs such as [v1\[0\]] are renamed to
    FPCore-legal symbols ([v1_0]).

    Kernels using bit-level operations the Taylor tier cannot model
    return [Error] with the offending operation named. *)

val difference : Sandbox.Spec.t -> Symbolic.pair -> (string, string) result

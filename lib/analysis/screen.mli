(** Fast path of the undef-read analysis, for screening proposals inside
    the search loop.

    [has_undef_read env p] is [true] exactly when [Dataflow.undef_reads]
    would report at least one finding with [defined_in] the locations of
    [env] (property-tested in [test/test_analysis.ml]).  The search rejects
    such proposals before [Cost.eval] — they read a register, the flags, or
    memory that neither the kernel's inputs nor any earlier slot wrote, so
    their behaviour depends on garbage and no test execution is needed to
    distrust them. *)

type env
(** Initially-defined locations, and the {!Facts} table the screen reads
    each slot's sets from.  The table makes an [env] mutable: use one per
    search context, never one across domains. *)

val env_of_spec : ?facts:Facts.t -> Sandbox.Spec.t -> env
(** The spec's inputs ([Sandbox.Spec.live_in_set]) plus the
    environment-defined [rsp].  [facts] (default: a fresh table) lets the
    screen share the table of the search's cost context
    ([Search.Cost.facts]), so each proposal's changed slots are derived
    once for the screen, the cost-cache key and the latency term. *)

val has_undef_read : ?refreshed:bool -> env -> Program.t -> bool
(** Refreshes the env's table with the program, then screens it.
    [refreshed] (default [false]): the table already describes the
    program, as the search's move-fed table does once per proposal. *)

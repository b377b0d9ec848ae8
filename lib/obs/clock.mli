(** Monotonic time for telemetry: a thin wrapper over the CLOCK_MONOTONIC
    stub shipped with bechamel.

    All durations derived from this module are wall-clock monotonic —
    unaffected by NTP steps — which is what throughput numbers
    (evaluations/sec) need. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary (but fixed, monotone) origin. *)

val elapsed_s : since:int64 -> float
(** Seconds elapsed since an earlier {!now_ns} reading. *)

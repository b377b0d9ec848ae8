(** Fast harness for calling sandbox-executed kernels from applications.

    A runner owns one machine and resets exactly the state a kernel rewrite
    can observe (the scratch registers and spill window in the operand
    pools) before each call, instead of copying the whole arena — this is
    what makes rendering a full image through the interpreter practical.

    Calls follow the aek ABIs of {!Kernels.Aek_kernels} (vector split
    across [xmm0]/[xmm1], memory vectors behind [rdi]/[rsi]) and the
    libimf/S3D scalar ABI (argument and result in [xmm0]). *)

type t

val create : ?engine:Sandbox.Exec.engine -> unit -> t
(** [engine] (default [Compiled]) selects the executor
    ({!Sandbox.Engine}).  Each distinct program (by physical identity) is
    prepared once per runner and replayed on later calls.

    Caveat: the cache key is physical, so mutating a program in place
    after running it (as the search's transforms do) and running it again
    through the {e same} runner would replay the stale preparation —
    applications call fixed kernel programs, which is the supported
    pattern. *)

val cycles : t -> int
(** Total kernel cycles executed so far (static latency model). *)

val calls : t -> int

val reset_counters : t -> unit

val exp64 : t -> Program.t -> float -> float
(** Scalar f64 kernel: x in [xmm0], result from [xmm0]. *)

val scale : t -> Program.t -> Vec3.t -> float -> Vec3.t
(** k in [xmm2]. *)

val dot : t -> Program.t -> Vec3.t -> Vec3.t -> float
(** First vector in registers, second behind [rdi]. *)

val add3 : t -> Program.t -> Vec3.t -> Vec3.t -> Vec3.t

val delta : t -> Program.t -> Vec3.t -> Vec3.t -> float -> float -> Vec3.t
(** Camera perturbation: vectors behind [rdi]/[rsi], r1/r2 in
    [xmm0]/[xmm1]. *)

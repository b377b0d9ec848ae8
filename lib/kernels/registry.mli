(** The built-in kernels by name: the libimf functions, the S3D exp and
    the aek raytracer kernels, with the rewrites that ship beside them. *)

val all : (string * Sandbox.Spec.t) list
(** Every built-in kernel, in listing order. *)

val find : string -> (Sandbox.Spec.t, string) result
(** The kernel of that name, or an ["unknown kernel … (try: …)"]
    message naming every kernel. *)

val shipped_rewrite : string -> Sandbox.Spec.t -> string * Program.t
(** [shipped_rewrite name spec] is the (label, program) of the rewrite
    shipped for kernel [name], or [("self", spec.program)] when none
    ships (checking a kernel against itself exercises the bit-wise
    tier). *)

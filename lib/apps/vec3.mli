(** Float triplets with single-precision arithmetic — the vector type of the
    aek ray tracer.  Components are always binary32 values (stored widened
    in OCaml floats). *)

type t = {
  x : float;
  y : float;
  z : float;
}

val make : float -> float -> float -> t
(** Components are rounded to binary32. *)

val zero : t

val add : t -> t -> t
val sub : t -> t -> t
val scale : t -> float -> t
val dot : t -> t -> float
val cross : t -> t -> t
val norm : t -> t
(** Normalize: v · (1/√(v·v)), all in single precision. *)

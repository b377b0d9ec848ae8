(** A test case is a function from live-in hardware locations to values
    (§2.2 of the paper): initial GP registers, xmm registers, and an
    optional memory image to splat into the arena. *)

type t = {
  gps : (Reg.gp * int64) list;
  xmms : (Reg.xmm * (int64 * int64)) list;
  mem_writes : (int64 * string) list;
      (** (absolute address, bytes) pairs applied to the arena. *)
}

val empty : t

val of_f64 : (Reg.xmm * float) list -> t
(** Doubles in the low quad of each register. *)

val with_gp : Reg.gp -> int64 -> t -> t
val with_xmm : Reg.xmm -> int64 * int64 -> t -> t
val with_f64 : Reg.xmm -> float -> t -> t
val with_f32 : Reg.xmm -> float -> t -> t

val with_mem : int64 -> string -> t -> t

val apply : t -> Machine.t -> unit
(** Install the test case into a machine (registers not mentioned are left
    as the machine has them). *)

val f64_bytes : float -> string
val f32_bytes : float -> string

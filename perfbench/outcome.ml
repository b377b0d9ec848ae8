(* What one measured pass of a workload hands back to the reporter.

   Every workload reports the same end-to-end shape: a work rate, a
   primary operation and a secondary operation (each timed per call),
   set-up time and peak memory.  [names] maps that shape onto the
   workload's own metric names for the printed table. *)

type t = {
  work : float;  (** units of work done (proposals, samples, requests) *)
  work_s : float;  (** wall seconds that work took *)
  op : float list;  (** seconds per primary operation *)
  op2 : float list;  (** seconds per secondary operation *)
}

type names = {
  work_name : string;  (** e.g. "proposals_per_s" *)
  work_unit : string;  (** e.g. "proposals/s" *)
  op_name : string;  (** e.g. "time_to_target" *)
  op2_name : string;  (** e.g. "optimize_call" *)
}

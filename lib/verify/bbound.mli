(** Branch-and-bound maximization of an interval-evaluated objective.

    Given a box of input intervals and an inclusion-monotone objective
    (evaluating a sub-box never yields a larger upper bound than any
    enclosing box), subdivision tightens the global maximum estimate:
    split the widest dimension of the loosest box first, keep the worst
    upper bound over all unexplored boxes, and prune boxes that cannot
    beat the best certified lower bound (the objective evaluated at box
    midpoints, which for an inclusion-monotone objective is a sound lower
    bound on the true maximum).

    The result is always an upper bound on sup f over the initial box at
    any budget — stopping early only costs tightness, never soundness —
    and it is monotone in the budget: deeper subdivision never loosens
    the reported bound. *)

type config = {
  max_depth : int;  (** maximum number of splits along any one path *)
  max_boxes : int;  (** total budget of objective evaluations *)
  timeout_s : float;
      (** cutoff, in seconds of the process's CPU time ([Sys.time]) since
          the call began; 0 = none.  CPU time is summed over every domain
          and thread of the process, so while other domains are busy the
          cutoff comes sooner than this many seconds of wall clock, and
          while the process is descheduled it comes later. *)
}

val default_config : config

type stats = {
  boxes_explored : int;
  depth : int;  (** deepest split level reached *)
}

val maximize :
  config ->
  f:(Interval.itv array -> float) ->
  box:Interval.itv array ->
  float * stats
(** [maximize cfg ~f ~box] returns an upper bound on [sup f] over [box],
    assuming [f] is inclusion-monotone and returns an upper bound of its
    true supremum on the given sub-box ([infinity] and [nan] are treated
    as ⊤).  An empty box yields [f box] evaluated once. *)

(** Shared control plane for cooperative multi-chain search.

    One {!t} is shared by every chain of an orchestrated run (and by the
    orchestrator thread that writes checkpoints).  It carries three things,
    all domain-safe:

    - a {b scoreboard}: the best η-correct perf and best overall total
      published by any chain, updated with lock-free monotonic minimum
      writes;
    - a {b stop flag} with a first-writer-wins reason, set either by a
      {!stop_policy} firing on a scoreboard update or by the wall-clock
      deadline; chains poll it every {!poll_interval} proposals
      ({!Optimizer.run_chain}'s amortized check) and exit cleanly with a
      partial-but-valid result;
    - per-chain {b publication slots}: each chain periodically publishes an
      immutable {!chain_pub} snapshot of its full search state (single
      writer per slot, so a plain atomic store suffices), which is what
      {!Snapshot} serializes for checkpoint/resume.

    Nothing here touches any RNG, so a run with a control plane attached
    and a policy that never fires returns the bit-identical result of the
    same run without one. *)

type stop_policy =
  | Exhaust  (** never stop early: run the full proposal budget *)
  | First_correct
      (** stop every chain once any chain finds an η-correct rewrite
          strictly better (lower total cost) than its starting program.
          The starting program itself never triggers the policy — in
          optimization mode the start {e is} the target, which is always
          correct. *)
  | Cost_below of float
      (** stop once any chain's best overall total drops below the
          threshold (improvements only; the starting cost does not
          trigger). *)

val stop_policy_to_string : stop_policy -> string
val stop_policy_of_string : string -> stop_policy option
(** ["exhaust"], ["first-correct"], ["cost-below:<float>"]. *)

type stop_reason =
  | Exhausted  (** ran the full budget (the default, also pre-stop) *)
  | Policy_satisfied
  | Deadline_hit
  | Cancelled
      (** an external party (e.g. a daemon shutting down or a client
          abandoning its job) called {!request_stop}; the partial result
          and any checkpoint remain valid for a later resume *)

val stop_reason_to_string : stop_reason -> string

(** An immutable snapshot of one chain's search state, captured at a poll
    point.  [trace_rev] is newest-first, as the optimizer accumulates it.
    [rng] / [master_rng] are {!Rng.Xoshiro256.state} words: [rng] drives
    the current restart, [master_rng] seeds the splits for the remaining
    restarts. *)
type chain_pub = {
  chain : int;  (** orchestrator slot (domain index) *)
  seed : int64;  (** this chain's full seed (base + chain) *)
  restart : int;  (** 1-based restart currently running *)
  iter : int;  (** proposals completed within this restart *)
  completed : bool;  (** all restarts exhausted: nothing left to resume *)
  rng : int64 array;
  master_rng : int64 array;
  cur : Program.t;
  best_correct : Program.t option;
  best_overall : Program.t;
  proposals_made : int;
  accepted : int;
  static_rejects : int;
  moves_proposed : int array;
  moves_accepted : int array;
  trace_rev : (int * float * float) list;
      (** (iter, best_total, current_total), newest first *)
}

type t

val create :
  ?deadline_s:float -> stop_when:stop_policy -> chains:int -> unit -> t
(** [deadline_s] is relative to [create] time (monotonic clock). *)

val poll_interval : int
(** How many proposals a chain runs between control polls (a power of
    two, currently 256) — the amortization that keeps the control plane
    off the hot path. *)

val note_best : t -> correct:bool -> total:float -> unit
(** Publish an {e improvement} to the scoreboard and apply the stop
    policy.  Chains call this only when their own best improves, so the
    cost is proportional to progress, not proposals. *)

val best_correct_total : t -> float
(** Lowest total cost of any correct improvement published so far
    ([infinity] if none). *)

val best_total : t -> float
(** Lowest overall total published so far ([infinity] if none). *)

val request_stop : t -> stop_reason -> unit
(** First writer wins; later requests are ignored. *)

val should_stop : t -> bool
(** True once a stop was requested or the deadline has passed (the
    deadline check happens here, so any poller can trip it). *)

val stop_reason : t -> stop_reason option
(** [None] until a stop is requested. *)

val publish : t -> chain_pub -> unit
val published : t -> chain_pub option array
(** A fresh array of the latest publication per slot ([None] if a chain
    has not published yet). *)

val mark_done : t -> chain:int -> unit
(** A chain finished (normally or not).  Idempotence is the caller's
    concern — call exactly once per chain. *)

val finished : t -> int
(** Chains that called {!mark_done} — the orchestrator's join-readiness
    count. *)

type stop_policy = Exhaust | First_correct | Cost_below of float

let stop_policy_to_string = function
  | Exhaust -> "exhaust"
  | First_correct -> "first-correct"
  | Cost_below c -> Printf.sprintf "cost-below:%g" c

let stop_policy_of_string s =
  match s with
  | "exhaust" -> Some Exhaust
  | "first-correct" -> Some First_correct
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "cost-below" ->
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      (try Some (Cost_below (float_of_string rest)) with _ -> None)
    | _ -> None)

type stop_reason = Exhausted | Policy_satisfied | Deadline_hit | Cancelled

let stop_reason_to_string = function
  | Exhausted -> "exhausted"
  | Policy_satisfied -> "policy-satisfied"
  | Deadline_hit -> "deadline"
  | Cancelled -> "cancelled"

type chain_pub = {
  chain : int;
  seed : int64;
  restart : int;
  iter : int;
  completed : bool;
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
}

type t = {
  stop_when : stop_policy;
  deadline_ns : int64 option;  (** absolute, on [Obs.Clock]'s monotonic axis *)
  reason : stop_reason option Atomic.t;
  best_correct_total : float Atomic.t;
  best_total : float Atomic.t;
  slots : chain_pub option Atomic.t array;
  done_count : int Atomic.t;
  crash_count : int Atomic.t;
}

let poll_interval = 256

let create ?deadline_s ~stop_when ~chains () =
  let deadline_ns =
    Option.map
      (fun s -> Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (s *. 1e9)))
      deadline_s
  in
  {
    stop_when;
    deadline_ns;
    reason = Atomic.make None;
    best_correct_total = Atomic.make infinity;
    best_total = Atomic.make infinity;
    slots = Array.init chains (fun _ -> Atomic.make None);
    done_count = Atomic.make 0;
    crash_count = Atomic.make 0;
  }

let request_stop t r =
  ignore (Atomic.compare_and_set t.reason None (Some r) : bool)

let stop_reason t = Atomic.get t.reason

(* Lock-free monotonic minimum: retry while we still hold a smaller value
   than the published one.  [compare_and_set] on floats compares the boxed
   values physically, which is exactly the [cur] we just read. *)
let rec update_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then update_min cell v

let note_best t ~correct ~total =
  if correct then update_min t.best_correct_total total;
  update_min t.best_total total;
  match t.stop_when with
  | Exhaust -> ()
  | First_correct -> if correct then request_stop t Policy_satisfied
  | Cost_below c -> if total < c then request_stop t Policy_satisfied

let best_correct_total t = Atomic.get t.best_correct_total
let best_total t = Atomic.get t.best_total

let should_stop t =
  match Atomic.get t.reason with
  | Some _ -> true
  | None -> (
    match t.deadline_ns with
    | Some d when Int64.compare (Obs.Clock.now_ns ()) d >= 0 ->
      request_stop t Deadline_hit;
      true
    | _ -> false)

let publish t pub = Atomic.set t.slots.(pub.chain) (Some pub)
let published t = Array.map Atomic.get t.slots
let mark_done t ~chain:_ = Atomic.incr t.done_count
let mark_crashed t ~chain:_ = Atomic.incr t.crash_count
let finished t = Atomic.get t.done_count
let crashed t = Atomic.get t.crash_count

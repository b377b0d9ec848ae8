(* A short serve session for the layer sweep's serve rows: one
   `stoke serve` daemon (1 worker, fresh state dir) and two tenants in
   this process, one after the other, each waiting for every reply.

   - Tenant "jobs" submits fresh exp optimize jobs, one seed after another
     from a pool, in an order drawn from the workload seed.
   - Tenant "hits" then repeats the tiny add requests completed during
     set-up, so every reply is a memo hit.

   Every answer is checked against the expected file, and a hit must be
   cached and byte-identical to the fresh answer. *)

type daemon = { pid : int; socket : string }

type env = {
  d : daemon;
  expected : Plan.expected;
  hits : (Plan.sjob * string) array;  (** a hit request, its fresh answer *)
  jobs : Plan.sjob array;  (** fresh jobs, in this run's order *)
  next_job : int ref;
  hit_rng : Rng.Xoshiro256.t;  (** picks each hit's request *)
}

(* One request's terminal event and client-side counts. *)
type reply = {
  final : (Obs.Sink.event, string) result;
  events : int;
  bytes : int;
  t_submit : float option;  (** daemon-clock ms of job_submit *)
  t_start : float option;
}

let submit ?trace socket req =
  let events = ref 0 and bytes = ref 0 in
  let t_submit = ref None and t_start = ref None in
  let on_event (ev : Obs.Sink.event) =
    incr events;
    bytes := !bytes + String.length (Obs.Sink.event_to_string ev) + 1;
    match ev.Obs.Sink.name with
    | "job_submit" -> t_submit := Some ev.Obs.Sink.t_ms
    | "job_start" -> t_start := Some ev.Obs.Sink.t_ms
    | _ -> ()
  in
  let final =
    Spans.with_ ?trace "serve.submit" (fun () ->
        Serve.Client.submit ~socket_path:socket ~on_event req)
  in
  { final; events = !events; bytes = !bytes; t_submit = !t_submit; t_start = !t_start }

(* The job_end result re-serialized, and whether it came from the memo. *)
let answer r =
  match r.final with
  | Error e -> Error e
  | Ok ev -> (
    match (Serve.Client.job_status ev, Serve.Client.job_result ev) with
    | "ok", Some res ->
      let cached =
        List.assoc_opt "cached" ev.Obs.Sink.fields = Some (Obs.Json.Bool true)
      in
      Ok (Obs.Json.to_string res, cached)
    | status, _ ->
      let why =
        match List.assoc_opt "error" ev.Obs.Sink.fields with
        | Some (Obs.Json.String e) -> e
        | _ -> "no result"
      in
      Error (Printf.sprintf "status %s: %s" status why))

(* A fresh answer must be the expected one and not come from the memo. *)
let check_fresh tally expected (j : Plan.sjob) r =
  let key = Plan.serve_key j in
  match (answer r, List.assoc_opt key expected.Plan.answers) with
  | Error e, _ -> Tally.record tally (Error (key ^ ": " ^ e))
  | Ok _, None -> Tally.record tally (Error (key ^ ": no expected entry"))
  | Ok (res, cached), Some want ->
    Tally.check tally (res = want && not cached) "%s: %s" key
      (if cached then "a fresh job was answered from the memo"
       else "answer differs from the library's")

let control socket action =
  Serve.Client.submit ~socket_path:socket
    { Serve.Protocol.kernel = ""; tenant = "bench"; deadline_s = None; action }

(* Daemons still running; killed and reaped if the benchmark dies. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn the daemon and wait until it answers a ping. *)
let start ~cli ~dir =
  Measure.rm_rf dir;
  Measure.mkdir_p dir;
  (* relative, so the socket path stays short wherever the checkout is *)
  let socket = Filename.concat dir "s.sock" in
  let state_dir = Filename.concat dir "state" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--state-dir"; state_dir; "--workers"; "1" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let t0 = Measure.now_ns () in
  let rec wait () =
    match control socket Serve.Protocol.Ping with
    | Ok _ -> { pid; socket }
    | Error _ when Measure.secs_since t0 < 20. ->
      Unix.sleepf 0.005;
      wait ()
    | Error e -> failwith ("serve daemon did not come up: " ^ e)
  in
  wait ()

(* Graceful shutdown. *)
let stop d =
  (match control d.socket Serve.Protocol.Shutdown with
   | Ok _ -> ()
   | Error _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* Set-up: daemon start-up until ready, then the hit set completed fresh. *)
let setup ~seed ~cli ~dir ~expected tally =
  let d = start ~cli ~dir in
  let hits =
    Array.of_list
      (List.map
         (fun s ->
           let j = Plan.hit_job s in
           let r = submit d.socket (Plan.serve_request ~tenant:"hits" j) in
           check_fresh tally expected j r;
           (j, match answer r with Ok (res, _) -> res | Error _ -> ""))
         Plan.hit_seeds)
  in
  let g = Rng.Xoshiro256.create (Int64.of_int seed) in
  let jobs = Array.of_list (List.map Plan.fresh_job Plan.job_seeds) in
  Rng.Dist.shuffle g jobs;
  { d; expected; hits; jobs; next_job = ref 0; hit_rng = Rng.Xoshiro256.split g }

let teardown env = stop env.d

(* Client-side figures of the fresh jobs. *)
type stats = {
  queue_wait_ms : float list;  (** job_submit → job_start *)
  run_ms : float list;  (** job_start → job_end *)
  events : int list;
  bytes : int list;
}

(* The share of the session given to the jobs tenant; hits get the rest.
   The jobs phase also ends when the job pool is used up. *)
let jobs_share = 0.7

let run_clients env ~seconds tally =
  let waits = ref [] and runs = ref [] and evs = ref [] and bytes = ref [] in
  let hits_client () =
    let t0 = Measure.now_ns () in
    let seconds = seconds *. (1. -. jobs_share) in
    while Measure.keep_going ~t0 ~seconds [] do
      let j, fresh = Rng.Dist.choose env.hit_rng env.hits in
      let r = submit ~trace:(Spans.new_trace ()) env.d.socket (Plan.serve_request ~tenant:"hits" j) in
      match answer r with
      | Ok (res, cached) ->
        Tally.check tally (cached && res = fresh) "hit %s: %s" (Plan.serve_key j)
          (if not cached then "not answered from the memo"
           else "answer differs from the fresh one")
      | Error e -> Tally.record tally (Error (Printf.sprintf "hit %s: %s" (Plan.serve_key j) e))
    done
  in
  let jobs_client () =
    let t0 = Measure.now_ns () in
    let seconds = seconds *. jobs_share in
    while Measure.keep_going ~t0 ~seconds [] && !(env.next_job) < Array.length env.jobs do
      let j = env.jobs.(!(env.next_job)) in
      incr env.next_job;
      let r = submit ~trace:(Spans.new_trace ()) env.d.socket (Plan.serve_request ~tenant:"jobs" j) in
      check_fresh tally env.expected j r;
      evs := r.events :: !evs;
      bytes := r.bytes :: !bytes;
      match (r.t_submit, r.t_start, r.final) with
      | Some s, Some st, Ok ev ->
        waits := (st -. s) :: !waits;
        runs := (ev.Obs.Sink.t_ms -. st) :: !runs
      | _ -> ()
    done
  in
  jobs_client ();
  hits_client ();
  { queue_wait_ms = !waits; run_ms = !runs; events = !evs; bytes = !bytes }

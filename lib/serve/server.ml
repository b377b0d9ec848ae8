type config = {
  socket_path : string;
  state_dir : string;
  workers : int;
  max_queue : int;
  default_deadline_s : float option;
  checkpoint_every_s : float;
  io_timeout_s : float;
  max_domains : int;
  kernels : (string * Sandbox.Spec.t) list;
  log : Obs.Sink.t;
}

let default_config ~socket_path ~state_dir ~kernels =
  {
    socket_path;
    state_dir;
    workers = 1;
    max_queue = 64;
    default_deadline_s = None;
    checkpoint_every_s = 10.;
    io_timeout_s = 30.;
    max_domains = 4;
    kernels;
    log = Obs.Sink.null;
  }

(* ---------- client connection ---------- *)

(* One mutex per connection: workers, chain domains (through the shared
   job sink), and the admission thread all write lines to the same
   socket.  A connection that dies mid-job flips [dead] and every later
   write becomes a no-op — the job keeps running and its result is still
   persisted for the next request with the same key. *)
type client = {
  oc : out_channel;
  c_lock : Mutex.t;
  mutable dead : bool;  (** no further writes will be attempted *)
  mutable closed : bool;  (** the socket fd has been released *)
}

let client_of_fd fd =
  {
    oc = Unix.out_channel_of_descr fd;
    c_lock = Mutex.create ();
    dead = false;
    closed = false;
  }

let send_line cl line =
  Mutex.lock cl.c_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cl.c_lock)
    (fun () ->
      if not cl.dead then
        try
          output_string cl.oc line;
          output_char cl.oc '\n';
          flush cl.oc
        with Sys_error _ | Unix.Unix_error _ ->
          (* release the fd now, not when the job eventually ends: a
             daemon that held every mid-stream disconnect until its job
             finished would bleed descriptors *)
          cl.dead <- true;
          cl.closed <- true;
          close_out_noerr cl.oc)

let client_sink cl =
  Obs.Sink.callback (fun ev -> send_line cl (Obs.Sink.event_to_string ev))

let close_client cl =
  Mutex.lock cl.c_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cl.c_lock)
    (fun () ->
      cl.dead <- true;
      if not cl.closed then begin
        cl.closed <- true;
        close_out_noerr cl.oc
      end)

(* ---------- job plans ---------- *)

(* Everything derivable from the request is fixed at admission, so the
   memo key, the files on disk, and the eventual run can never disagree
   about what the job is. *)
type plan =
  | P_optimize of {
      config : Search.Optimizer.config;
      params : Search.Cost.params;
      tests : Sandbox.Testcase.t array;
      domains : int;
    }
  | P_frontier of {
      config : Search.Optimizer.config;
      etas : Ulp.t list;
      seed : int64;
    }
  | P_validate of {
      vconfig : Validate.Driver.config;
      eta : Ulp.t;
      rewrite : Program.t;
    }

let plan_of_request cfg (req : Protocol.request) spec =
  match req.Protocol.action with
  | Protocol.Ping | Protocol.Shutdown -> Error "not a job"
  | Protocol.Optimize { eta; proposals; seed; domains } ->
    let domains = Stdlib.min cfg.max_domains (Stdlib.max 1 domains) in
    let config =
      {
        Search.Optimizer.default_config with
        Search.Optimizer.proposals;
        seed = Int64.of_int seed;
      }
    in
    let tests =
      Stoke.make_tests ~seed:(Int64.of_int (seed + 100)) spec
    in
    let params = Search.Cost.default_params ~eta:(Ulp.of_float eta) in
    let key =
      Printf.sprintf "opt|%s|%016Lx"
        (Search.Snapshot.fingerprint ~spec ~params ~config ~tests ~domains)
        (Program.hash spec.Sandbox.Spec.program)
    in
    Ok (P_optimize { config; params; tests; domains }, key)
  | Protocol.Frontier { etas; proposals; seed } ->
    let config =
      {
        Search.Optimizer.default_config with
        Search.Optimizer.proposals;
        seed = Int64.of_int seed;
      }
    in
    let etas_u = List.map Ulp.of_float etas in
    let key =
      Printf.sprintf "frontier|%s|%s|p:%d|s:%d|%016Lx" req.Protocol.kernel
        (String.concat ","
           (List.map (fun e -> Ulp.to_string e) etas_u))
        proposals seed
        (Program.hash spec.Sandbox.Spec.program)
    in
    Ok
      (P_frontier { config; etas = etas_u; seed = Int64.of_int seed }, key)
  | Protocol.Validate { eta; rewrite; seed } -> (
    match
      try Ok (Parser.parse_program_exn rewrite) with e -> Error e
    with
    | Error e -> Error ("rewrite: " ^ Printexc.to_string e)
    | Ok prog ->
      let vconfig =
        { Validate.Driver.default_config with
          Validate.Driver.seed = Int64.of_int seed
        }
      in
      (* keyed on the ULP bound the job runs with, as the optimize and
         frontier keys are: 0, -0.0 and 0.5 are one job *)
      let eta = Ulp.of_float eta in
      let key =
        Printf.sprintf "val|%s|%s|s:%d|%s|%016Lx" req.Protocol.kernel
          (Ulp.to_string eta) seed
          (Program.to_string prog)
          (Program.hash spec.Sandbox.Spec.program)
      in
      Ok (P_validate { vconfig; eta; rewrite = prog }, key))

(* ---------- scheduler state ---------- *)

type job = {
  req : Protocol.request;
  spec : Sandbox.Spec.t;
  plan : plan;
  digest : string;
  cl : client;
}

type t = {
  cfg : config;
  memo : Memo.t;
  m : Mutex.t;
  wake : Condition.t;  (** queue activity or shutdown *)
  settled : Condition.t;  (** a running digest finished *)
  queues : (string, job Queue.t) Hashtbl.t;
  mutable rotation : string list;  (** tenants with queued work, FIFO *)
  mutable queued : int;
  running : (string, Search.Control.t option ref) Hashtbl.t;
  mutable shutting_down : bool;
  mutable listener : Unix.file_descr option;
}

let emit_both st cl name fields =
  Obs.Sink.emit (client_sink cl) name fields;
  Obs.Sink.emit st.cfg.log name fields

let log_depth st =
  (* callers hold st.m *)
  Obs.Sink.emit st.cfg.log "queue_depth"
    [
      ("depth", Obs.Json.Int st.queued);
      ("running", Obs.Json.Int (Hashtbl.length st.running));
    ]

let job_end_fields job ~status ~cached extra =
  [
    ("job", Obs.Json.String job.digest);
    ("op", Obs.Json.String (Protocol.op_name job.req.Protocol.action));
    ("status", Obs.Json.String status);
    ("cached", Obs.Json.Bool cached);
  ]
  @ extra

let finish_job st job ~status ~cached extra =
  emit_both st job.cl "job_end" (job_end_fields job ~status ~cached extra);
  close_client job.cl

(* ---------- admission ---------- *)

let enqueue st job =
  Mutex.lock st.m;
  let verdict =
    if st.shutting_down then `Refuse "server is shutting down"
    else if st.queued >= st.cfg.max_queue then `Refuse "queue full"
    else begin
      let q =
        match Hashtbl.find_opt st.queues job.req.Protocol.tenant with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace st.queues job.req.Protocol.tenant q;
          q
      in
      (* fair share: a tenant enters the rotation when its queue becomes
         non-empty, and is consulted once per round regardless of how
         many jobs it has piled up *)
      if not (List.mem job.req.Protocol.tenant st.rotation) then
        st.rotation <- st.rotation @ [ job.req.Protocol.tenant ];
      Queue.add job q;
      st.queued <- st.queued + 1;
      let depth = st.queued in
      log_depth st;
      Condition.signal st.wake;
      `Queued depth
    end
  in
  Mutex.unlock st.m;
  match verdict with
  | `Refuse reason ->
    finish_job st job ~status:"rejected" ~cached:false
      [ ("error", Obs.Json.String reason) ]
  | `Queued depth ->
    emit_both st job.cl "job_submit"
      [
        ("job", Obs.Json.String job.digest);
        ("op", Obs.Json.String (Protocol.op_name job.req.Protocol.action));
        ("kernel", Obs.Json.String job.req.Protocol.kernel);
        ("tenant", Obs.Json.String job.req.Protocol.tenant);
        ("queue_depth", Obs.Json.Int depth);
      ]

let serve_cached st job result =
  emit_both st job.cl "cache_hit" [ ("job", Obs.Json.String job.digest) ];
  finish_job st job ~status:"ok" ~cached:true [ ("result", result) ]

(* ---------- execution ---------- *)

let deadline_of st job =
  match job.req.Protocol.deadline_s with
  | Some _ as d -> d
  | None -> st.cfg.default_deadline_s

let run_plan st job ctl =
  let sink = client_sink job.cl in
  let snap = Memo.snap_path st.memo job.digest in
  match job.plan with
  | P_optimize { config; params; tests; domains } ->
    let resume =
      if Memo.has_snapshot st.memo job.digest then
        match Search.Snapshot.read ~path:snap with
        | Ok s -> Some s
        | Error _ -> None
      else None
    in
    let control =
      Search.Control.create
        ?deadline_s:(deadline_of st job)
        ~stop_when:config.Search.Optimizer.stop_when ~chains:domains ()
    in
    Mutex.lock st.m;
    ctl := Some control;
    Mutex.unlock st.m;
    let run resume =
      Search.Parallel.run ~domains
        ~obs:(fun ~chain:_ -> sink)
        ~orch_obs:sink
        ~checkpoint:(snap, st.cfg.checkpoint_every_s)
        ?resume ~control ~spec:job.spec ~params ~tests ~config ()
    in
    let r =
      match resume with
      | None -> run None
      | Some _ -> (
        (* a stale snapshot (e.g. an old format version) must not wedge
           the key forever — fall back to a fresh run *)
        try run resume with Invalid_argument _ -> run None)
    in
    let completed =
      match r.Search.Optimizer.stop_reason with
      | Search.Control.Exhausted | Search.Control.Policy_satisfied -> true
      | Search.Control.Deadline_hit | Search.Control.Cancelled -> false
    in
    (Protocol.optimize_result_json job.spec r, Option.is_some resume, completed)
  | P_frontier { config; etas; seed } ->
    let resume =
      if Memo.has_snapshot st.memo job.digest then
        match Search.Frontier.read_snapshot ~spec:job.spec ~path:snap with
        | Ok s -> Some s
        | Error _ -> None
      else None
    in
    let config =
      { config with Search.Optimizer.deadline_s = deadline_of st job }
    in
    let run resume =
      Stoke.frontier ~config ~etas ~obs:sink ~checkpoint:snap ?resume ~seed
        job.spec
    in
    let r =
      match resume with
      | None -> run None
      | Some _ -> ( try run resume with Invalid_argument _ -> run None)
    in
    (* the walk applies the deadline per point, so a truncated run is
       indistinguishable from a full-budget one in the result itself;
       only deadline-free walks are complete in the memoizable sense
       (shutdown never cancels frontier controls — they are created
       inside the walk) *)
    ( Protocol.frontier_result_json r,
      Option.is_some resume,
      Option.is_none (deadline_of st job) )
  | P_validate { vconfig; eta; rewrite } ->
    let v = Stoke.validate ~config:vconfig ~obs:sink ~eta job.spec rewrite in
    (Protocol.validate_result_json v, false, true)

let execute st worker_idx job ctl =
  match Memo.find st.memo job.digest with
  | Some result -> serve_cached st job result
  | None ->
    if st.shutting_down then
      finish_job st job ~status:"cancelled" ~cached:false
        [ ("error", Obs.Json.String "server is shutting down") ]
    else begin
      emit_both st job.cl "job_start"
        [
          ("job", Obs.Json.String job.digest);
          ("op", Obs.Json.String (Protocol.op_name job.req.Protocol.action));
          ("worker", Obs.Json.Int worker_idx);
          ("resumed", Obs.Json.Bool (Memo.has_snapshot st.memo job.digest));
        ];
      match run_plan st job ctl with
      | result, resumed, completed ->
        (* Memoize only completed runs.  A Cancelled (graceful drain) or
           Deadline_hit result is partial: storing it would serve the
           truncation forever to identical requests with a longer or no
           deadline, and would shadow the checkpoint — which stays
           authoritative, so resubmitting resumes the work instead. *)
        if completed then Memo.store st.memo job.digest result;
        finish_job st job ~status:"ok" ~cached:false
          [ ("resumed", Obs.Json.Bool resumed); ("result", result) ]
      | exception e ->
        finish_job st job ~status:"error" ~cached:false
          [ ("error", Obs.Json.String (Printexc.to_string e)) ]
    end

(* ---------- workers ---------- *)

let pop_job st =
  (* callers hold st.m and guarantee st.queued > 0 *)
  match st.rotation with
  | [] -> assert false
  | tenant :: rest ->
    let q = Hashtbl.find st.queues tenant in
    let job = Queue.pop q in
    st.rotation <- (if Queue.is_empty q then rest else rest @ [ tenant ]);
    st.queued <- st.queued - 1;
    job

let rec worker st idx =
  Mutex.lock st.m;
  while (not st.shutting_down) && st.queued = 0 do
    Condition.wait st.wake st.m
  done;
  if st.queued = 0 then begin
    (* shutting down and drained *)
    Mutex.unlock st.m;
    ()
  end
  else begin
    let job = pop_job st in
    (* cross-worker dedupe: while an identical job runs, wait — its
       result lands in the memo and this one becomes a cache hit *)
    while Hashtbl.mem st.running job.digest do
      Condition.wait st.settled st.m
    done;
    let ctl = ref None in
    Hashtbl.replace st.running job.digest ctl;
    log_depth st;
    Mutex.unlock st.m;
    (try execute st idx job ctl
     with e ->
       (* a failure delivering the reply must not kill the worker *)
       Obs.Sink.emit st.cfg.log "worker_error"
         [
           ("worker", Obs.Json.Int idx);
           ("error", Obs.Json.String (Printexc.to_string e));
         ]);
    Mutex.lock st.m;
    Hashtbl.remove st.running job.digest;
    log_depth st;
    Condition.broadcast st.settled;
    Mutex.unlock st.m;
    worker st idx
  end

(* ---------- shutdown ---------- *)

let initiate_shutdown st =
  Mutex.lock st.m;
  if not st.shutting_down then begin
    st.shutting_down <- true;
    Hashtbl.iter
      (fun _ ctl ->
        match !ctl with
        | Some control ->
          Search.Control.request_stop control Search.Control.Cancelled
        | None -> ())
      st.running;
    Condition.broadcast st.wake;
    Condition.broadcast st.settled;
    (match st.listener with
     | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
     | None -> ())
  end;
  Mutex.unlock st.m

(* ---------- connections ---------- *)

let handle_connection st fd =
  let cl = client_of_fd fd in
  let ic = Unix.in_channel_of_descr fd in
  match input_line ic with
  | exception (End_of_file | Sys_error _) -> close_client cl
  | line -> (
    match Protocol.request_of_string line with
    | Error e ->
      Obs.Sink.emit (client_sink cl) "job_end"
        [
          ("status", Obs.Json.String "error");
          ("error", Obs.Json.String e);
        ];
      close_client cl
    | Ok req -> (
      match req.Protocol.action with
      | Protocol.Ping ->
        Obs.Sink.emit (client_sink cl) "pong" [];
        close_client cl
      | Protocol.Shutdown ->
        Obs.Sink.emit st.cfg.log "serve_shutdown_request" [];
        Obs.Sink.emit (client_sink cl) "job_end"
          [ ("status", Obs.Json.String "ok") ];
        close_client cl;
        initiate_shutdown st
      | _ -> (
        match List.assoc_opt req.Protocol.kernel st.cfg.kernels with
        | None ->
          Obs.Sink.emit (client_sink cl) "job_end"
            [
              ("status", Obs.Json.String "error");
              ( "error",
                Obs.Json.String
                  (Printf.sprintf "unknown kernel %S" req.Protocol.kernel)
              );
            ];
          close_client cl
        | Some spec -> (
          match plan_of_request st.cfg req spec with
          | Error e ->
            Obs.Sink.emit (client_sink cl) "job_end"
              [
                ("status", Obs.Json.String "error");
                ("error", Obs.Json.String e);
              ];
            close_client cl
          | Ok (plan, key) ->
            let digest = Memo.digest_of_key key in
            let job = { req; spec; plan; digest; cl } in
            Memo.record_job st.memo digest
              (Obs.Json.Obj
                 [
                   ("request", Protocol.request_to_json req);
                   ("key", Obs.Json.String key);
                 ]);
            (* a completed identical job answers from the memo without
               queueing — zero proposals, zero wait *)
            (match Memo.find st.memo digest with
             | Some result -> serve_cached st job result
             | None -> enqueue st job)))))

(* ---------- main loop ---------- *)

let run ?(on_ready = fun (_ : t) -> ()) cfg =
  (* a client that disconnects mid-stream must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let memo = Memo.create ~state_dir:cfg.state_dir in
  let st =
    {
      cfg;
      memo;
      m = Mutex.create ();
      wake = Condition.create ();
      settled = Condition.create ();
      queues = Hashtbl.create 8;
      rotation = [];
      queued = 0;
      running = Hashtbl.create 8;
      shutting_down = false;
      listener = None;
    }
  in
  let snaps, results = Memo.recover memo in
  Obs.Sink.emit cfg.log "serve_recover"
    [
      ("in_flight_snapshots", Obs.Json.Int snaps);
      ("completed_results", Obs.Json.Int results);
    ];
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen sock 16;
  Mutex.lock st.m;
  st.listener <- Some sock;
  Mutex.unlock st.m;
  Obs.Sink.emit cfg.log "serve_start"
    [
      ("socket", Obs.Json.String cfg.socket_path);
      ("state_dir", Obs.Json.String cfg.state_dir);
      ("workers", Obs.Json.Int cfg.workers);
      ("max_queue", Obs.Json.Int cfg.max_queue);
      ("kernels", Obs.Json.Int (List.length cfg.kernels));
    ];
  on_ready st;
  let workers =
    List.init (Stdlib.max 1 cfg.workers) (fun i ->
        Thread.create (fun () -> worker st i) ())
  in
  (* Live connection handlers only: each handler prunes its own entry
     on exit, so the table does not grow one Thread.t per connection
     ever accepted over the daemon's lifetime. *)
  let conns : (int, Thread.t) Hashtbl.t = Hashtbl.create 16 in
  let conns_m = Mutex.create () in
  let next_conn = ref 0 in
  let spawn fd =
    (* a peer may neither send its request nor drain its event stream;
       socket timeouts bound both directions so a stuck client cannot
       pin a handler thread (or graceful shutdown) indefinitely *)
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO cfg.io_timeout_s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO cfg.io_timeout_s
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    Mutex.lock conns_m;
    let id = !next_conn in
    incr next_conn;
    let th =
      Thread.create
        (fun () ->
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock conns_m;
              Hashtbl.remove conns id;
              Mutex.unlock conns_m)
            (fun () -> handle_connection st fd))
        ()
    in
    Hashtbl.replace conns id th;
    Mutex.unlock conns_m
  in
  let rec accept_loop () =
    if not st.shutting_down then
      match Unix.accept sock with
      | fd, _ ->
        if st.shutting_down then Unix.close fd else spawn fd;
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        (* descriptor exhaustion sheds load, it must not kill the
           daemon; pressure drains as handlers close their sockets *)
        Obs.Sink.emit cfg.log "serve_accept_overload" [];
        Unix.sleepf 0.05;
        accept_loop ()
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _)
        ->
        (* EINTR: a signal landed — if its handler requested shutdown,
           the shutting_down check above ends the loop *)
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* the listener was shut down under us *)
        ()
  in
  accept_loop ();
  initiate_shutdown st;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  List.iter Thread.join workers;
  let live =
    Mutex.lock conns_m;
    let l = Hashtbl.fold (fun _ th acc -> th :: acc) conns [] in
    Mutex.unlock conns_m;
    l
  in
  List.iter Thread.join live;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Obs.Sink.emit cfg.log "serve_stop" []

let shutdown = initiate_shutdown

(* Serve daemon tests: protocol round-trips, an end-to-end smoke test
   over a real Unix-domain socket, memo-table hits (zero new proposals,
   surviving restarts), and kill-and-resume durability (the resumed
   winner is bit-identical to an uninterrupted run).

   Socket tests skip gracefully on platforms where Unix-domain sockets
   are unavailable. *)

let ctr = ref 0

let tmpdir () =
  incr ctr;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stoke-serve-%d-%d" (Unix.getpid ()) !ctr)
  in
  Unix.mkdir d 0o755;
  d

let sockets_available =
  lazy
    (let d = tmpdir () in
     let path = Filename.concat d "probe.sock" in
     match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
     | exception _ -> false
     | fd -> (
       match
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 1
       with
       | () ->
         Unix.close fd;
         (try Unix.unlink path with Unix.Unix_error _ -> ());
         true
       | exception _ ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         false))

let require_sockets () =
  if not (Lazy.force sockets_available) then Alcotest.skip ()

let wait_for ~timeout_s ~what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      loop ()
    end
  in
  loop ()

let get_ok ~what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let field ev name = List.assoc_opt name ev.Obs.Sink.fields

let bool_field ev name =
  match field ev name with Some (Obs.Json.Bool b) -> b | _ -> false

let test_kernels = [ ("add", Kernels.Aek_kernels.add_spec) ]

let mk_config dir =
  let cfg =
    Serve.Server.default_config
      ~socket_path:(Filename.concat dir "s.sock")
      ~state_dir:(Filename.concat dir "state")
      ~kernels:test_kernels
  in
  { cfg with Serve.Server.checkpoint_every_s = 0.02 }

let opt_request ?(proposals = 2000) ?(seed = 3) () =
  {
    Serve.Protocol.kernel = "add";
    tenant = Serve.Protocol.default_tenant;
    deadline_s = None;
    action = Serve.Protocol.Optimize { eta = 0.; proposals; seed; domains = 1 };
  }

let control_request action =
  {
    Serve.Protocol.kernel = "";
    tenant = Serve.Protocol.default_tenant;
    deadline_s = None;
    action;
  }

(* Run the daemon on a thread inside this process; returns once the
   socket is listening. *)
let start_inproc cfg =
  let started = ref false in
  let th =
    Thread.create
      (fun () ->
        Serve.Server.run ~on_ready:(fun (_ : Serve.Server.t) -> started := true)
          cfg)
      ()
  in
  wait_for ~timeout_s:10. ~what:"server startup" (fun () -> !started);
  th

let stop_inproc cfg th =
  let term =
    get_ok ~what:"shutdown"
      (Serve.Client.submit
         ~socket_path:cfg.Serve.Server.socket_path
         (control_request Serve.Protocol.Shutdown))
  in
  Alcotest.(check string) "shutdown acknowledged" "ok" (Serve.Client.job_status term);
  Thread.join th

(* Fork the daemon as a real child process (so it can be SIGKILLed);
   returns its pid once the socket is listening. *)
let fork_server cfg =
  (* a SIGKILLed daemon leaves its socket file behind; remove it so the
     file reappearing means the new daemon is listening *)
  (try Unix.unlink cfg.Serve.Server.socket_path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
    (try Serve.Server.run cfg with _ -> ());
    Unix._exit 0
  | pid ->
    wait_for ~timeout_s:10. ~what:"forked server socket" (fun () ->
        Sys.file_exists cfg.Serve.Server.socket_path);
    pid

let protocol_tests =
  [
    Alcotest.test_case "requests round-trip through JSON" `Quick (fun () ->
        let reqs =
          [
            opt_request ();
            {
              Serve.Protocol.kernel = "dot";
              tenant = "team-a";
              deadline_s = Some 2.5;
              action =
                Serve.Protocol.Frontier
                  { etas = [ 0.; 1e6 ]; proposals = 500; seed = 9 };
            };
            {
              Serve.Protocol.kernel = "add";
              tenant = Serve.Protocol.default_tenant;
              deadline_s = None;
              action =
                Serve.Protocol.Validate
                  { eta = 4.; rewrite = "addsd xmm0, xmm1"; seed = 7 };
            };
            control_request Serve.Protocol.Ping;
            control_request Serve.Protocol.Shutdown;
          ]
        in
        List.iter
          (fun req ->
            let line = Serve.Protocol.request_to_string req in
            let back =
              get_ok ~what:"parse" (Serve.Protocol.request_of_string line)
            in
            Alcotest.(check string)
              (Serve.Protocol.op_name req.Serve.Protocol.action
              ^ " round-trips")
              line
              (Serve.Protocol.request_to_string back))
          reqs);
    Alcotest.test_case "garbage lines are rejected" `Quick (fun () ->
        (match Serve.Protocol.request_of_string "not json" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "parsed garbage");
        match Serve.Protocol.request_of_string {|{"op": "launch_missiles"}|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "parsed unknown op");
    Alcotest.test_case "job-defining fields are strict" `Quick (fun () ->
        (* present-but-malformed fields must reject the request, not
           silently run an expensive job with unintended parameters *)
        let reject what line =
          match Serve.Protocol.request_of_string line with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %s" what
        in
        reject "optimize without eta" {|{"op":"optimize","kernel":"add"}|};
        reject "optimize without kernel" {|{"op":"optimize","eta":0}|};
        reject "non-numeric proposals"
          {|{"op":"optimize","kernel":"add","eta":0,"proposals":"many"}|};
        reject "non-numeric seed"
          {|{"op":"optimize","kernel":"add","eta":0,"seed":null}|};
        reject "non-numeric deadline"
          {|{"op":"optimize","kernel":"add","eta":0,"deadline_s":"soon"}|};
        reject "validate without eta"
          {|{"op":"validate","kernel":"add","rewrite":"addsd xmm0, xmm1"}|};
        reject "frontier with a non-numeric eta"
          {|{"op":"frontier","kernel":"add","etas":[0,"tight"]}|};
        (* nonsensical values: a negative or NaN eta used to run as
           eta = 0 under a memo key of its own, a negative budget ran *)
        reject "negative eta" {|{"op":"optimize","kernel":"add","eta":-1}|};
        reject "NaN eta" {|{"op":"optimize","kernel":"add","eta":NaN}|};
        reject "minus-infinity eta"
          {|{"op":"optimize","kernel":"add","eta":-Infinity}|};
        reject "negative proposals"
          {|{"op":"optimize","kernel":"add","eta":0,"proposals":-5}|};
        reject "validate with a negative eta"
          {|{"op":"validate","kernel":"add","eta":-1,"rewrite":"addsd xmm0, xmm1"}|};
        reject "frontier with a negative eta"
          {|{"op":"frontier","kernel":"add","etas":[0,-1]}|};
        reject "frontier with a NaN eta"
          {|{"op":"frontier","kernel":"add","etas":[NaN]}|};
        reject "frontier with negative proposals"
          {|{"op":"frontier","kernel":"add","etas":[0],"proposals":-5}|};
        (* an unbounded eta is still a budget *)
        (match
           Serve.Protocol.request_of_string
             {|{"op":"optimize","kernel":"add","eta":Infinity}|}
         with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "rejected eta = +inf: %s" e);
        (* absent optional fields still default *)
        match
          Serve.Protocol.request_of_string
            {|{"op":"optimize","kernel":"add","eta":0}|}
        with
        | Ok
            {
              Serve.Protocol.action =
                Serve.Protocol.Optimize { proposals; seed; domains; _ };
              _;
            } ->
          Alcotest.(check int) "default proposals" 200_000 proposals;
          Alcotest.(check int) "default seed" 1 seed;
          Alcotest.(check int) "default domains" 1 domains
        | Ok _ -> Alcotest.fail "parsed to a different action"
        | Error e -> Alcotest.failf "rejected a minimal request: %s" e);
  ]

(* Kill-and-resume durability.  This test forks, so it runs before any
   test that spawns threads in this process. *)
let durability_tests =
  [
    Alcotest.test_case "SIGKILL mid-job, resume matches uninterrupted run"
      `Slow (fun () ->
        require_sockets ();
        let spec = List.assoc "add" test_kernels in
        let proposals = 60_000 and seed = 11 in
        let req = opt_request ~proposals ~seed () in
        (* Unix.fork is forbidden once any domain has been spawned in
           this process, so the forking happens first and the in-process
           reference run (which spawns a search domain) last. *)
        let cfg = mk_config (tmpdir ()) in
        let sock = cfg.Serve.Server.socket_path in
        let state = cfg.Serve.Server.state_dir in
        let state_files suffix () =
          Sys.file_exists state
          && Array.exists
               (fun f -> Filename.check_suffix f suffix)
               (Sys.readdir state)
        in
        (* First daemon: submit, wait for a checkpoint, SIGKILL. *)
        let pid1 = fork_server cfg in
        let conn = get_ok ~what:"connect" (Serve.Client.connect ~socket_path:sock) in
        get_ok ~what:"send" (Serve.Client.send conn req);
        wait_for ~timeout_s:60. ~what:"a checkpoint on disk" (fun () ->
            state_files ".snap" () || state_files ".result.json" ());
        let finished_before_kill = state_files ".result.json" () in
        Unix.kill pid1 Sys.sigkill;
        ignore (Unix.waitpid [] pid1);
        Serve.Client.close conn;
        (* Second daemon, same state dir: the resubmitted job resumes
           from the checkpoint and lands on the same winner. *)
        let pid2 = fork_server cfg in
        let term =
          get_ok ~what:"resubmit" (Serve.Client.submit ~socket_path:sock req)
        in
        Alcotest.(check string) "job ok" "ok" (Serve.Client.job_status term);
        if not finished_before_kill then begin
          Alcotest.(check bool)
            "resumed from the checkpoint" true (bool_field term "resumed");
          Alcotest.(check bool) "not a cache hit" false (bool_field term "cached")
        end;
        let result =
          match Serve.Client.job_result term with
          | Some r -> Obs.Json.to_string r
          | None -> Alcotest.fail "job_end carried no result"
        in
        let term =
          get_ok ~what:"shutdown"
            (Serve.Client.submit ~socket_path:sock
               (control_request Serve.Protocol.Shutdown))
        in
        Alcotest.(check string) "shutdown ok" "ok" (Serve.Client.job_status term);
        ignore (Unix.waitpid [] pid2);
        (* The uninterrupted reference: exactly the run the daemon plans
           for this request (same config, params, tests, domains). *)
        let config =
          {
            Search.Optimizer.default_config with
            Search.Optimizer.proposals;
            seed = Int64.of_int seed;
          }
        in
        let tests = Stoke.make_tests ~seed:(Int64.of_int (seed + 100)) spec in
        let params = Search.Cost.default_params ~eta:0L in
        let reference =
          Search.Parallel.run ~domains:1 ~spec ~params ~tests ~config ()
        in
        let expected =
          Obs.Json.to_string (Serve.Protocol.optimize_result_json spec reference)
        in
        Alcotest.(check string)
          "resumed result is bit-identical to the uninterrupted run" expected
          result);
  ]

let smoke_tests =
  [
    Alcotest.test_case "ping, optimize, memo hit, restart persistence"
      `Slow (fun () ->
        require_sockets ();
        let cfg = mk_config (tmpdir ()) in
        let sock = cfg.Serve.Server.socket_path in
        let th = start_inproc cfg in
        (* liveness *)
        let term =
          get_ok ~what:"ping"
            (Serve.Client.submit ~socket_path:sock
               (control_request Serve.Protocol.Ping))
        in
        Alcotest.(check string) "pong" "pong" term.Obs.Sink.name;
        (* unknown kernels are refused, not crashed on *)
        let term =
          get_ok ~what:"bad kernel"
            (Serve.Client.submit ~socket_path:sock
               { (opt_request ()) with Serve.Protocol.kernel = "no-such" })
        in
        Alcotest.(check string)
          "unknown kernel is an error" "error" (Serve.Client.job_status term);
        (* a real job streams its telemetry and ends with the result *)
        let req = opt_request ~proposals:2000 ~seed:3 () in
        let names = ref [] in
        let term =
          get_ok ~what:"optimize"
            (Serve.Client.submit ~socket_path:sock
               ~on_event:(fun ev -> names := ev.Obs.Sink.name :: !names)
               req)
        in
        Alcotest.(check string) "job ok" "ok" (Serve.Client.job_status term);
        Alcotest.(check bool) "fresh run" false (bool_field term "cached");
        List.iter
          (fun n ->
            Alcotest.(check bool)
              (Printf.sprintf "stream contains %s" n)
              true (List.mem n !names))
          [ "job_submit"; "job_start"; "search_start"; "search_end"; "job_end" ];
        let first_result =
          match Serve.Client.job_result term with
          | Some r -> Obs.Json.to_string r
          | None -> Alcotest.fail "no result payload"
        in
        (* the identical request is a memo hit: no search runs at all *)
        let names2 = ref [] in
        let term2 =
          get_ok ~what:"memo hit"
            (Serve.Client.submit ~socket_path:sock
               ~on_event:(fun ev -> names2 := ev.Obs.Sink.name :: !names2)
               req)
        in
        Alcotest.(check string) "cached job ok" "ok" (Serve.Client.job_status term2);
        Alcotest.(check bool) "cached flag" true (bool_field term2 "cached");
        Alcotest.(check bool) "cache_hit event" true (List.mem "cache_hit" !names2);
        List.iter
          (fun n ->
            Alcotest.(check bool)
              (Printf.sprintf "no %s on a cache hit" n)
              false (List.mem n !names2))
          [ "search_start"; "progress"; "chain_start"; "job_start" ];
        (match Serve.Client.job_result term2 with
        | Some r ->
          Alcotest.(check string)
            "cached result is byte-identical" first_result
            (Obs.Json.to_string r)
        | None -> Alcotest.fail "cached job_end carried no result");
        stop_inproc cfg th;
        (* the memo survives a daemon restart *)
        let th = start_inproc cfg in
        let term3 =
          get_ok ~what:"memo after restart"
            (Serve.Client.submit ~socket_path:sock req)
        in
        Alcotest.(check bool)
          "memo hit after restart" true (bool_field term3 "cached");
        stop_inproc cfg th);
    Alcotest.test_case "validate jobs with one ULP bound share a memo entry"
      `Slow (fun () ->
        require_sockets ();
        let cfg = mk_config (tmpdir ()) in
        let sock = cfg.Serve.Server.socket_path in
        let th = start_inproc cfg in
        let rewrite = Program.to_string Kernels.Aek_kernels.add_rewrite in
        let submit eta =
          let term =
            get_ok ~what:(Printf.sprintf "validate eta %g" eta)
              (Serve.Client.submit ~socket_path:sock
                 {
                   Serve.Protocol.kernel = "add";
                   tenant = Serve.Protocol.default_tenant;
                   deadline_s = None;
                   action = Serve.Protocol.Validate { eta; rewrite; seed = 3 };
                 })
          in
          Alcotest.(check string)
            (Printf.sprintf "eta %g ok" eta)
            "ok" (Serve.Client.job_status term);
          let digest =
            match field term "job" with
            | Some (Obs.Json.String d) -> d
            | _ -> Alcotest.fail "job_end carried no job digest"
          in
          (digest, bool_field term "cached")
        in
        (* 0, -0.0 and 0.5 all bound the error by Ulp.of_float = 0 ULPs *)
        let d0, cached0 = submit 0. in
        let d1, cached1 = submit (-0.) in
        let d2, cached2 = submit 0.5 in
        Alcotest.(check bool) "the first run is fresh" false cached0;
        Alcotest.(check (list string)) "one digest" [ d0; d0 ] [ d1; d2 ];
        Alcotest.(check (list bool)) "the repeats are memo hits" [ true; true ]
          [ cached1; cached2 ];
        stop_inproc cfg th);
    Alcotest.test_case "a deadline-truncated run is not memoized" `Slow
      (fun () ->
        require_sockets ();
        let cfg = mk_config (tmpdir ()) in
        let sock = cfg.Serve.Server.socket_path in
        let th = start_inproc cfg in
        let req = opt_request ~proposals:500_000 ~seed:5 () in
        let truncated = { req with Serve.Protocol.deadline_s = Some 0.05 } in
        let term =
          get_ok ~what:"truncated job"
            (Serve.Client.submit ~socket_path:sock truncated)
        in
        Alcotest.(check string)
          "partial result still delivered" "ok" (Serve.Client.job_status term);
        let stop_reason =
          match Serve.Client.job_result term with
          | Some r -> (
            match Obs.Json.member "stop_reason" r with
            | Some (Obs.Json.String s) -> s
            | _ -> "")
          | None -> ""
        in
        (* 500k proposals in 50 ms is beyond this hardware; but if the
           run somehow completed, memoizing it was correct and the
           regression below is vacuous *)
        if stop_reason = "deadline" then begin
          let term2 =
            get_ok ~what:"resubmit"
              (Serve.Client.submit ~socket_path:sock truncated)
          in
          Alcotest.(check bool)
            "the truncation was not served from the memo" false
            (bool_field term2 "cached")
        end;
        stop_inproc cfg th);
    Alcotest.test_case "graceful drain pauses a job instead of memoizing it"
      `Slow (fun () ->
        require_sockets ();
        let cfg = mk_config (tmpdir ()) in
        let sock = cfg.Serve.Server.socket_path in
        let th = start_inproc cfg in
        let req = opt_request ~proposals:200_000 ~seed:13 () in
        (* submit a long job, then shut the daemon down mid-run: the job
           is cancelled, its partial result delivered but NOT memoized *)
        let started = ref false in
        let terminal = ref None in
        let submitter =
          Thread.create
            (fun () ->
              terminal :=
                Some
                  (Serve.Client.submit ~socket_path:sock
                     ~on_event:(fun ev ->
                       if ev.Obs.Sink.name = "job_start" then started := true)
                     req))
            ()
        in
        wait_for ~timeout_s:30. ~what:"job_start" (fun () -> !started);
        Unix.sleepf 0.1 (* let a checkpoint land *);
        stop_inproc cfg th;
        Thread.join submitter;
        let term =
          match !terminal with
          | Some t -> get_ok ~what:"cancelled job" t
          | None -> Alcotest.fail "submitter returned nothing"
        in
        Alcotest.(check string)
          "partial result still delivered" "ok" (Serve.Client.job_status term);
        let stop_reason =
          match Serve.Client.job_result term with
          | Some r -> (
            match Obs.Json.member "stop_reason" r with
            | Some (Obs.Json.String s) -> s
            | _ -> "")
          | None -> ""
        in
        (* restart on the same state dir and resubmit: the job must
           resume from its checkpoint, not hit the memo with the
           truncated result *)
        let th = start_inproc cfg in
        let term2 =
          get_ok ~what:"resubmit after drain"
            (Serve.Client.submit ~socket_path:sock req)
        in
        Alcotest.(check string)
          "resumed job completes" "ok" (Serve.Client.job_status term2);
        if stop_reason = "cancelled" then
          Alcotest.(check bool)
            "the truncation was not served from the memo" false
            (bool_field term2 "cached");
        (match Serve.Client.job_result term2 with
        | Some r ->
          Alcotest.(check string) "second run finishes its budget" "exhausted"
            (match Obs.Json.member "stop_reason" r with
            | Some (Obs.Json.String s) -> s
            | _ -> "")
        | None -> Alcotest.fail "no result payload");
        stop_inproc cfg th);
    Alcotest.test_case "an idle connection does not wedge shutdown" `Slow
      (fun () ->
        require_sockets ();
        let cfg =
          { (mk_config (tmpdir ())) with Serve.Server.io_timeout_s = 0.3 }
        in
        let sock = cfg.Serve.Server.socket_path in
        let th = start_inproc cfg in
        (* connect and never send a request: the read timeout must
           reclaim the handler so the drain below can finish *)
        let idle =
          get_ok ~what:"idle connect" (Serve.Client.connect ~socket_path:sock)
        in
        let stopped = ref false in
        let _watchdog =
          Thread.create
            (fun () ->
              stop_inproc cfg th;
              stopped := true)
            ()
        in
        wait_for ~timeout_s:10. ~what:"shutdown despite an idle connection"
          (fun () -> !stopped);
        Serve.Client.close idle);
    Alcotest.test_case "two tenants share the pool fairly" `Slow (fun () ->
        require_sockets ();
        (* The daemon's log sink parks the one worker in the first
           [job_start] until the test opens the gate, so the first job
           holds the worker while the others queue, however fast a
           search runs; each [job_submit] says a job is queued. *)
        let gate = Mutex.create () and opened = Condition.create () in
        let held = ref false and released = ref false and queued = ref 0 in
        let locked f =
          Mutex.lock gate;
          Fun.protect ~finally:(fun () -> Mutex.unlock gate) f
        in
        let log (ev : Obs.Sink.event) =
          locked (fun () ->
              match ev.Obs.Sink.name with
              | "job_start" when not !held ->
                held := true;
                while not !released do
                  Condition.wait opened gate
                done
              | "job_submit" -> incr queued
              | _ -> ())
        in
        let release () =
          locked (fun () ->
              released := true;
              Condition.broadcast opened)
        in
        let cfg =
          { (mk_config (tmpdir ())) with Serve.Server.log = Obs.Sink.callback log }
        in
        let sock = cfg.Serve.Server.socket_path in
        let th = start_inproc cfg in
        (* One worker.  While a job of tenant a runs, queue a:22, a:23,
           then b:24 — in that submission order.  Pure FIFO would start
           a:22, a:23, b:24; fair share consults each tenant once per
           round, so b:24 must start before a's second queued job. *)
        let req tenant seed =
          { (opt_request ~proposals:400 ~seed ()) with Serve.Protocol.tenant }
        in
        let order = Mutex.create () in
        let started : string list ref = ref [] in
        let submit tenant seed =
          Thread.create
            (fun () ->
              ignore
                (Serve.Client.submit ~socket_path:sock
                   ~on_event:(fun ev ->
                     if ev.Obs.Sink.name = "job_start" then begin
                       Mutex.lock order;
                       started := Printf.sprintf "%s:%d" tenant seed :: !started;
                       Mutex.unlock order
                     end)
                   (req tenant seed)))
            ()
        in
        let until what pred = wait_for ~timeout_s:10. ~what (fun () -> locked pred) in
        let jobs =
          Fun.protect ~finally:release (fun () ->
              let busy = submit "a" 21 in
              until "the first job to hold the worker" (fun () -> !held && !queued = 1);
              List.mapi
                (fun i (tenant, seed) ->
                  let th = submit tenant seed in
                  until (Printf.sprintf "%s:%d to queue" tenant seed) (fun () ->
                      !queued = i + 2);
                  th)
                [ ("a", 22); ("a", 23); ("b", 24) ]
              |> List.cons busy)
        in
        List.iter Thread.join jobs;
        Alcotest.(check (list string))
          "round-robin across tenants"
          [ "a:21"; "a:22"; "b:24"; "a:23" ]
          (List.rev !started);
        stop_inproc cfg th);
  ]

let () =
  Alcotest.run "serve"
    [
      ("protocol", protocol_tests);
      ("durability", durability_tests);
      ("daemon", smoke_tests);
    ]

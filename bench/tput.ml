(* §5.1-style throughput microbenchmarks (bechamel): test-case dispatch
   rate through the sandbox, proposal rate, and ULP-distance rate.  The
   paper's JIT reaches ~1M test cases/s on native hardware; our interpreter
   is the documented substitution, so the point of this bench is to report
   the actual substrate cost.  Also a Geweke-diagnostic trace for a
   validation chain (§5.3). *)

open Bechamel
open Toolkit

let dispatch_test =
  let spec = Kernels.S3d.exp_spec in
  let machine = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
  let pristine = Sandbox.Machine.copy machine in
  let tc = Sandbox.Spec.testcase_of_floats spec [| -1.25 |] in
  Test.make ~name:"exp kernel dispatch (48 instrs)"
    (Staged.stage (fun () ->
         Sandbox.Machine.restore_from ~src:pristine ~dst:machine;
         Sandbox.Testcase.apply tc machine;
         ignore (Sandbox.Exec.run machine spec.Sandbox.Spec.program)))

let compiled_dispatch_test =
  let spec = Kernels.S3d.exp_spec in
  let machine = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
  let pristine = Sandbox.Machine.copy machine in
  let tc = Sandbox.Spec.testcase_of_floats spec [| -1.25 |] in
  let cp = Sandbox.Compiled.compile machine spec.Sandbox.Spec.program in
  Test.make ~name:"exp kernel dispatch (compiled)"
    (Staged.stage (fun () ->
         Sandbox.Machine.restore_from ~src:pristine ~dst:machine;
         Sandbox.Testcase.apply tc machine;
         ignore (Sandbox.Compiled.exec cp)))

let dot_dispatch_test =
  let spec = Kernels.Aek_kernels.dot_spec in
  let runner = Apps.Kernel_runner.create () in
  let v = Apps.Vec3.make 1. 2. 3. in
  Test.make ~name:"dot kernel dispatch (8 instrs)"
    (Staged.stage (fun () ->
         ignore (Apps.Kernel_runner.dot runner spec.Sandbox.Spec.program v v)))

let proposal_test =
  let spec = Kernels.S3d.exp_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let g = Rng.Xoshiro256.create 7L in
  let p = Program.with_padding 4 (Program.instrs spec.Sandbox.Spec.program) in
  Test.make ~name:"transform propose+undo"
    (Staged.stage (fun () ->
         match Search.Transform.propose g pools p with
         | None -> ()
         | Some (_, u) -> Search.Transform.undo p u))

let ulp_test =
  let g = Rng.Xoshiro256.create 9L in
  Test.make ~name:"ULP distance"
    (Staged.stage (fun () ->
         ignore
           (Ulp.dist64
              (Rng.Dist.uniform_bits_double g)
              (Rng.Dist.uniform_bits_double g))))

let encode_test =
  let p = Kernels.S3d.exp_program in
  Test.make ~name:"encode exp kernel to bytes"
    (Staged.stage (fun () -> ignore (Encoder.encode_program p)))

(* Head-to-head instrs/sec of every engine on the loop the cost function
   drives: one prepared program run over a 32-test lane set through the
   engine seam, each test's outputs read back.  Written to the tput
   telemetry stream so CI can track the speedups. *)
let run_engine_tput () =
  Util.subheading "execution engines: instrs/sec on the exp kernel";
  let spec = Kernels.S3d.exp_spec in
  let program = spec.Sandbox.Spec.program in
  let lanes = 32 in
  let tests =
    Array.init lanes (fun i ->
        let x = -3.0 +. (3.0 *. float_of_int i /. float_of_int lanes) in
        Sandbox.Spec.testcase_of_floats spec [| x |])
  in
  let executed =
    (snd
       (Sandbox.Exec.run_testcase ~mem_size:spec.Sandbox.Spec.mem_size
          program tests.(0)))
      .Sandbox.Exec.executed
  in
  let order = Array.init lanes Fun.id in
  (* [Error reason] when this engine can't run the kernel here — the
     caller reports the skip instead of failing. *)
  let measure engine =
    if not (Sandbox.Engine.available engine) then Error "unavailable"
    else begin
      let l =
        Sandbox.Engine.lanes (Sandbox.Engine.of_engine engine) spec tests
      in
      let p = Sandbox.Engine.prepare l program in
      let once () =
        ignore
          (Sandbox.Engine.run p ~order
             ~diverges:(fun _ -> false)
             (fun _ _ -> false)
            : Sandbox.Engine.outcome)
      in
      for _ = 1 to 2_000 / lanes do
        once ()
      done;
      let iters = Util.scaled 300_000 / lanes in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        once ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if (Sandbox.Engine.counters l).Sandbox.Engine.fallbacks > 0 then
        Error "fell_back_to_batched"
      else begin
        let runs = float_of_int iters *. float_of_int lanes in
        Ok (runs *. float_of_int executed /. dt, runs /. dt)
      end
    end
  in
  let results = List.map (fun e -> (e, measure e)) Sandbox.Engine.all in
  List.iter
    (fun (engine, r) ->
      let name = Sandbox.Exec.engine_to_string engine in
      match r with
      | Ok (ips, rps) ->
        Printf.printf "%-36s %14.0f %14.0f\n"
          (name ^ " instrs/s | runs/s")
          ips rps;
        Obs.Sink.emit (Util.obs ()) "engine_tput"
          [
            ("engine", Obs.Json.String name);
            ("kernel", Obs.Json.String "exp");
            ("instrs_per_sec", Obs.Json.Float ips);
            ("runs_per_sec", Obs.Json.Float rps);
          ]
      | Error reason ->
        Printf.printf "%-36s %14s\n"
          (name ^ " instrs/s | runs/s")
          ("(skipped: " ^ reason ^ ")");
        Obs.Sink.emit (Util.obs ()) "engine_unavailable"
          [
            ("engine", Obs.Json.String name);
            ("kernel", Obs.Json.String "exp");
            ("reason", Obs.Json.String reason);
          ])
    results;
  List.iter
    (fun (num, den) ->
      match List.assoc num results, List.assoc den results with
      | Ok (a, _), Ok (b, _) ->
        let pair =
          Sandbox.Exec.engine_to_string num
          ^ "/"
          ^ Sandbox.Exec.engine_to_string den
        in
        let s = a /. b in
        Printf.printf "%-36s %14.2fx\n" (pair ^ " speedup") s;
        Obs.Sink.emit (Util.obs ()) "engine_speedup"
          [
            ("kernel", Obs.Json.String "exp");
            ("pair", Obs.Json.String pair);
            ("speedup", Obs.Json.Float s);
          ]
      | _ -> ())
    Sandbox.Exec.
      [
        (Compiled, Interp);
        (Batched, Compiled);
        (Native, Batched);
        (Native, Interp);
      ]

(* Per-proposal cost of the static undef-read screen, measured over the
   same propose/undo stream the optimizer sees, plus the fraction of
   proposals it rejects — the two numbers that justify (or indict) having
   it on by default. *)
let run_screen_tput () =
  Util.subheading "static screen: checks/sec over the proposal stream";
  let spec = Kernels.S3d.exp_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let env = Analysis.Screen.env_of_spec spec in
  let g = Rng.Xoshiro256.create 21L in
  let p = Program.with_padding 4 (Program.instrs spec.Sandbox.Spec.program) in
  let step () =
    match Search.Transform.propose g pools p with
    | None -> false
    | Some (_, u) ->
      let rejected = Analysis.Screen.has_undef_read env p in
      Search.Transform.undo p u;
      rejected
  in
  for _ = 1 to 2_000 do
    ignore (step ())
  done;
  let iters = Util.scaled 300_000 in
  let rejects = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    if step () then incr rejects
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let checks_per_sec = float_of_int iters /. dt in
  let reject_frac = float_of_int !rejects /. float_of_int iters in
  Printf.printf "%-36s %14.0f %14.3f\n"
    "screen checks/s | reject fraction" checks_per_sec reject_frac;
  Obs.Sink.emit (Util.obs ()) "static_screen"
    [
      ("kernel", Obs.Json.String "exp");
      ("checks_per_sec", Obs.Json.Float checks_per_sec);
      ("reject_fraction", Obs.Json.Float reject_frac);
      ("proposals", Obs.Json.Int iters);
    ]

(* The two numbers that justify the orchestrator's control plane: the
   amortized poll must be free (same proposals/s with the scoreboard
   attached, bit-identical winner), and cooperative early-stop must
   actually return wall-clock when a policy fires.  Both go into the tput
   telemetry stream so CI can watch for control-plane creep. *)
let run_orchestrator_tput () =
  Util.subheading "orchestrator control plane: poll overhead & early-stop";
  let spec = Kernels.Aek_kernels.add_spec in
  let tests = Stoke.make_tests ~n:8 ~seed:51L spec in
  let params = Search.Cost.default_params ~eta:0L in
  let proposals = Util.scaled 60_000 in
  let base =
    { Search.Optimizer.default_config with Search.Optimizer.proposals }
  in
  (* 1. poll overhead: the same single chain with and without the control
     plane (a Cost_below policy that can never fire, since totals are
     non-negative).  The winner must be bit-identical — the poll never
     touches an RNG — so any proposals/s gap is pure control-plane cost. *)
  let timed config =
    let ctx = Search.Cost.create spec params tests in
    let t0 = Unix.gettimeofday () in
    let r = Search.Optimizer.run ctx config in
    (r, float_of_int r.Search.Optimizer.proposals_made
        /. (Unix.gettimeofday () -. t0))
  in
  let plain, plain_pps = timed base in
  let policed, policed_pps =
    timed
      { base with Search.Optimizer.stop_when = Search.Control.Cost_below (-1.) }
  in
  if
    not
      (Program.equal plain.Search.Optimizer.best_overall
         policed.Search.Optimizer.best_overall)
  then failwith "orchestrator tput: control plane changed the winner";
  let overhead = 1. -. (policed_pps /. plain_pps) in
  Printf.printf "%-36s %14.0f %14.0f\n" "proposals/s: bare | polled" plain_pps
    policed_pps;
  Printf.printf "%-36s %13.1f%%\n" "poll overhead" (100. *. overhead);
  Obs.Sink.emit (Util.obs ()) "orchestrator"
    [
      ("probe", Obs.Json.String "poll_overhead");
      ("kernel", Obs.Json.String "add");
      ("proposals", Obs.Json.Int proposals);
      ("bare_proposals_per_sec", Obs.Json.Float plain_pps);
      ("polled_proposals_per_sec", Obs.Json.Float policed_pps);
      ("overhead_frac", Obs.Json.Float overhead);
    ];
  (* 2. early-stop saving: four chains hunting an easy win (huge eta) under
     First_correct vs. running the budget out. *)
  let domains = 4 in
  let loose = Search.Cost.default_params ~eta:(Ulp.of_float 1e6) in
  let timed_parallel config =
    let t0 = Unix.gettimeofday () in
    let r =
      Search.Parallel.run ~domains ~spec ~params:loose ~tests ~config ()
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let exhaust, exhaust_s = timed_parallel base in
  let stopped, stopped_s =
    timed_parallel
      { base with Search.Optimizer.stop_when = Search.Control.First_correct }
  in
  Printf.printf "%-36s %13.3fs %13.3fs\n" "4 chains: exhaust | first-correct"
    exhaust_s stopped_s;
  Printf.printf "%-36s %14d %14d\n" "proposals made"
    exhaust.Search.Optimizer.proposals_made
    stopped.Search.Optimizer.proposals_made;
  Obs.Sink.emit (Util.obs ()) "orchestrator"
    [
      ("probe", Obs.Json.String "early_stop");
      ("kernel", Obs.Json.String "add");
      ("domains", Obs.Json.Int domains);
      ("budget_per_chain", Obs.Json.Int proposals);
      ("exhaust_s", Obs.Json.Float exhaust_s);
      ("first_correct_s", Obs.Json.Float stopped_s);
      ( "stop_reason",
        Obs.Json.String
          (Search.Control.stop_reason_to_string
             stopped.Search.Optimizer.stop_reason) );
      ( "proposals_saved",
        Obs.Json.Int
          (exhaust.Search.Optimizer.proposals_made
          - stopped.Search.Optimizer.proposals_made) );
    ]

(* Warm-start saving: the frontier's whole pitch is that one warm walk
   buys the same curve for a fraction of the cold per-point budget.
   Measure both on a small grid and emit the ratio as a [frontier_saving]
   event so CI can watch the saving (and the quality guard: no warm point
   dominated by its cold counterpart). *)
let run_frontier_tput () =
  Util.subheading "frontier: warm vs cold proposal budget";
  let spec = Kernels.Aek_kernels.add_spec in
  let etas = [ 0L; Ulp.of_float 1e4; Ulp.of_float 1e8; Ulp.of_float 1e12 ] in
  let seed = 31L in
  let config = Util.search_config ~proposals:20_000 ~seed () in
  let run_mode warm =
    Stoke.frontier ~config ~validate_results:false ~etas ~tests:16 ~warm
      ~obs:(Util.obs ()) ~seed spec
  in
  let cold = run_mode false in
  let warm = run_mode true in
  let dominated =
    List.fold_left
      (fun n (wp : Search.Frontier.point) ->
        let cp =
          List.find
            (fun (c : Search.Frontier.point) ->
              Ulp.compare c.Search.Frontier.eta wp.Search.Frontier.eta = 0)
            cold.Search.Frontier.points
        in
        if cp.Search.Frontier.latency < wp.Search.Frontier.latency then n + 1
        else n)
      0 warm.Search.Frontier.points
  in
  let saving =
    1.
    -. float_of_int warm.Search.Frontier.total_proposals
       /. float_of_int (max 1 cold.Search.Frontier.total_proposals)
  in
  Printf.printf "%-36s %14d %14d\n" "proposals: cold | warm"
    cold.Search.Frontier.total_proposals warm.Search.Frontier.total_proposals;
  Printf.printf "%-36s %13.1f%% %14d\n" "saving | warm points dominated"
    (100. *. saving) dominated;
  Obs.Sink.emit (Util.obs ()) "frontier_saving"
    [
      ("kernel", Obs.Json.String "add");
      ("etas", Obs.Json.Int (List.length etas));
      ("cold_proposals", Obs.Json.Int cold.Search.Frontier.total_proposals);
      ("warm_proposals", Obs.Json.Int warm.Search.Frontier.total_proposals);
      ("saving_frac", Obs.Json.Float saving);
      ("dominated_points", Obs.Json.Int dominated);
    ]

let run_bechamel () =
  let tests =
    [ dispatch_test; compiled_dispatch_test; dot_dispatch_test; proposal_test;
      ulp_test; encode_test ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  Printf.printf "%-36s %14s %14s\n" "benchmark" "ns/op" "ops/s";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "%-36s %14.1f %14.0f\n" name est (1e9 /. est)
          | _ -> Printf.printf "%-36s (no estimate)\n" name)
        results)
    tests

let run_geweke_trace () =
  Util.subheading "Geweke diagnostic trace for a validation chain";
  (* exp with its last refinement dropped, eta 0 *)
  let instrs = Program.instrs Kernels.S3d.exp_program in
  let truncated = Program.of_instrs (List.filteri (fun i _ -> i < 15 || i >= 19) instrs) in
  let e = Validate.Errfn.create Kernels.S3d.exp_spec ~rewrite:truncated in
  let g = Rng.Xoshiro256.create 77L in
  let proposal = Validate.Proposal.create Kernels.S3d.exp_spec in
  let cur = ref (Validate.Proposal.initial g proposal) in
  let cur_err = ref (Validate.Errfn.eval e !cur) in
  let samples = ref [] in
  Printf.printf "%-10s %12s %10s\n" "samples" "|Z|" "mixed";
  for iter = 1 to Util.scaled 50_000 do
    let cand = Validate.Proposal.step g proposal !cur in
    let err = Validate.Errfn.eval e cand in
    if
      err >= !cur_err
      || Rng.Dist.float g 1.0 < (err +. 1.) /. (!cur_err +. 1.)
    then begin
      cur := cand;
      cur_err := err
    end;
    samples := !cur_err :: !samples;
    if iter mod Util.scaled 10_000 = 0 then begin
      let chain = Array.of_list (List.rev !samples) in
      let v = Stats.Geweke.z_statistic chain in
      Printf.printf "%-10d %12.4f %10b\n" iter
        (Float.abs v.Stats.Geweke.z)
        (Stats.Geweke.converged ~threshold:0.5 v)
    end
  done

let run () =
  Util.heading "Throughput microbenchmarks (bechamel) and Geweke trace";
  run_bechamel ();
  run_engine_tput ();
  run_screen_tput ();
  run_orchestrator_tput ();
  run_frontier_tput ();
  run_geweke_trace ()

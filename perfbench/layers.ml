(* The per-layer sweep of the traced run.

   Each measurement is a span opened here, around calls into one layer's
   public functions.  Calls too short to time one at a time are timed in
   batches: a span covers [n] calls, and the batch is repeated so that a
   stall of the guest spoils one repeat, not the figure.  A row's value
   is the median over its spans of span time ÷ calls.  The sweep is the
   same in every workload's traced run, so its rows compare across
   workloads and commits.  The kernel is exp (η = 1e10) with the 32 test
   cases search seed 7 would use.

   [inner_loop] is apart from the sweep: it replays one workload's inner
   loop, so that the run can split that workload's time by layer. *)

let kname = "exp"
let eta = Ulp.of_float 1e10
let seed = 7
let engines = Sandbox.Exec.[ Interp; Compiled; Batched; Native ]
let ename = Sandbox.Exec.engine_to_string
let default_engine = Search.Optimizer.default_config.Search.Optimizer.engine

type row = { name : string; value : float; unit_ : string }

(* Native rows that cannot be measured on this host, with the reason. *)
type skip = { sname : string; reason : string }

let native_batch m tests =
  if not (Sandbox.Native.available ()) then Error "mmap_exec_denied"
  else
    match Sandbox.Native.create_batch m tests with
    | Some b -> Ok b
    | None -> Error "worker_unavailable"

(* [step 0] … [step (n-1)] inside one span, five times over. *)
let timed name n step =
  for _ = 1 to 5 do
    Spans.with_ ~n name (fun () ->
        for i = 0 to n - 1 do
          step i
        done)
  done

(* ---------- sandbox ---------- *)

let sweep_sandbox ~skips spec tests =
  let prog = spec.Sandbox.Spec.program in
  let lanes = Array.length tests in
  let m = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
  let pristine = Sandbox.Machine.copy m in
  timed "sandbox.restore" 40_000 (fun _ -> Sandbox.Machine.restore_from ~src:pristine ~dst:m);
  (* one input: reset, install it, run *)
  let scalar run i =
    Sandbox.Machine.restore_from ~src:pristine ~dst:m;
    Sandbox.Testcase.apply tests.(i mod lanes) m;
    ignore (Sys.opaque_identity (run ()))
  in
  let cp = Sandbox.Compiled.compile m prog in
  List.iter
    (fun (e, run) ->
      timed (Printf.sprintf "sandbox.%s.lane1" e) 4_000 (scalar run);
      timed (Printf.sprintf "sandbox.%s.lane32" e) 200 (fun _ ->
          for i = 0 to lanes - 1 do
            scalar run i
          done))
    [
      ("interp", fun () -> Sandbox.Exec.run m prog);
      ("compiled", fun () -> Sandbox.Compiled.exec cp);
    ];
  let b1 = Sandbox.Batched.create_batch pristine [| tests.(0) |] in
  let bp1 = Sandbox.Batched.compile b1 prog in
  timed "sandbox.batched.lane1" 4_000 (fun i ->
      Sandbox.Batched.reset b1;
      Sandbox.Batched.apply_testcase b1 ~lane:0 tests.(i mod lanes);
      ignore (Sandbox.Batched.exec bp1 : bool));
  let b32 = Sandbox.Batched.create_batch pristine tests in
  let bp32 = Sandbox.Batched.compile b32 prog in
  timed "sandbox.batched.lane32" 200 (fun _ ->
      Sandbox.Batched.reset b32;
      ignore (Sandbox.Batched.exec bp32 : bool));
  let skip reason =
    skips := { sname = "sandbox.native"; reason } :: !skips;
    None
  in
  let native =
    match (native_batch pristine [| tests.(0) |], native_batch pristine tests) with
    | Error r, _ | _, Error r -> skip r
    | Ok nb1, Ok nb32 -> (
      match (Sandbox.Native.compile nb1 prog, Sandbox.Native.compile nb32 prog) with
      | Some np1, Some np32 ->
        timed "sandbox.native.lane1" 400 (fun i ->
            Sandbox.Native.reset nb1;
            Sandbox.Native.apply_testcase nb1 ~lane:0 tests.(i mod lanes);
            ignore (Sandbox.Native.exec np1 : bool));
        timed "sandbox.native.lane32" 100 (fun _ ->
            Sandbox.Native.reset nb32;
            ignore (Sandbox.Native.exec np32 : bool));
        Some nb32
      | _ -> skip "kernel_unencodable")
  in
  (m, b32, native)

(* ---------- search: a replay of the hot loop ---------- *)

(* The optimizer's inner loop, driven from here so each call is its own
   span: propose, screen, evaluate under the acceptance bound, accept or
   undo.  Costs are bit-identical across engines, so every engine replays
   the same proposal stream and must end on the same program. *)
let replay ?(cutoff = true) ~engine ~label ~capture ~eta spec tests =
  let target = spec.Sandbox.Spec.program in
  let config = Search.Optimizer.default_config in
  let ctx = Search.Cost.create ~engine spec (Search.Cost.default_params ~eta) tests in
  let pools = Search.Pools.make ~target ~spec in
  let env = Analysis.Screen.env_of_spec spec in
  let g = Rng.Xoshiro256.create (Int64.of_int seed) in
  let cur = Program.with_padding config.Search.Optimizer.padding (Program.instrs target) in
  let cur_total = ref (Search.Cost.eval_full ctx cur).Search.Cost.total in
  let screened = ref 0 and rejected = ref 0 in
  let captured = ref [] in
  Spans.with_ ~trace:(Spans.new_trace ()) ("bench.replay." ^ label) (fun () ->
      for iter = 1 to 4_000 do
        match Spans.with_ "search.propose" (fun () -> Search.Transform.propose g pools cur) with
        | None -> ()
        | Some (_, u) ->
          let undo () = Spans.with_ "search.undo" (fun () -> Search.Transform.undo cur u) in
          incr screened;
          if Spans.with_ "analysis.screen" (fun () -> Analysis.Screen.has_undef_read env cur)
          then begin
            incr rejected;
            undo ()
          end
          else begin
            if capture then captured := Program.copy cur :: !captured;
            let limit =
              match Search.Strategy.accept_bound config.Search.Optimizer.strategy g ~iter with
              | None -> Float.infinity
              | Some b -> !cur_total +. b
            in
            let verdict =
              Spans.with_ ("search.cost_eval." ^ label) (fun () ->
                  if cutoff then Search.Cost.eval ~cutoff:limit ctx cur
                  else Search.Cost.eval ctx cur)
            in
            match verdict with
            | Search.Cost.Evaluated c when c.Search.Cost.total <= limit ->
              cur_total := c.Search.Cost.total
            | _ -> undo ()
          end
      done);
  (!screened, !rejected, Array.of_list (List.rev !captured), Program.hash cur)

(* ---------- a workload's inner loop ---------- *)

(* [Validate.Driver.run]'s chain, driven from here: the Metropolis walk
   over inputs ([Proposal.step], [Errfn.eval_both], the accept rule) in
   one span per Geweke interval, and each Geweke test in a span of its
   own.  It must reach the verdict the expected file holds for
   [Stoke.validate] on the same pair and seed. *)
let replay_validation tally expected (p : Plan.pair) ~seed =
  let config = Plan.validate_config ~seed in
  let spec = Plan.spec_of p.pkernel in
  let errfn =
    Spans.with_ "validate.errfn_create" (fun () -> Validate.Errfn.create spec ~rewrite:p.rewrite)
  in
  let g = Rng.Xoshiro256.create config.Validate.Driver.seed in
  let proposal = Validate.Proposal.create ~sigma:config.Validate.Driver.sigma spec in
  let cur = ref (Validate.Proposal.initial g proposal) in
  let e0, m0 = Validate.Errfn.eval_both errfn !cur in
  let cur_err = ref e0 and max_err = ref m0 in
  let density e = e +. 1. in
  let cap = config.Validate.Driver.max_proposals and every = config.Validate.Driver.check_every in
  let chain = Array.make cap 0. in
  let iter = ref 0 and mixed = ref false in
  while (not !mixed) && !iter < cap do
    let first = !iter + 1 and last = Int.min cap (((!iter / every) + 1) * every) in
    Spans.with_ ~n:(last - !iter) "validate.chain" (fun () ->
        for i = first to last do
          let candidate = Validate.Proposal.step g proposal !cur in
          let err, exact = Validate.Errfn.eval_both errfn candidate in
          if err >= !cur_err || Rng.Dist.float g 1.0 < density err /. density !cur_err then begin
            cur := candidate;
            cur_err := err
          end;
          if Ulp.compare exact !max_err > 0 then max_err := exact;
          chain.(i - 1) <- !cur_err
        done);
    iter := last;
    if last >= config.Validate.Driver.min_samples && last mod every = 0 then begin
      let v = Spans.with_ "stats.geweke" (fun () -> Stats.Geweke.z_statistic (Array.sub chain 0 last)) in
      mixed := Stats.Geweke.converged ~threshold:config.Validate.Driver.z_threshold v
    end
  done;
  let key = Plan.validate_key p ~seed in
  match List.assoc_opt key expected.Plan.verdicts with
  | None -> Tally.record tally (Error (key ^ ": no expected entry"))
  | Some (e, _, m, it) ->
    Tally.check tally
      (Ulp.to_string !max_err = e && !mixed = m && !iter = it)
      "%s: replayed chain ends at max_err %s mixed %b after %d (expected %s %b %d)" key
      (Ulp.to_string !max_err) !mixed !iter e m it

(* Replays [workload]'s inner loop and returns its spans.  search: the
   optimizer loop above on each search kernel under the default engine.
   check: one validation chain per pair, each followed by the verify
   call the workload makes after a validation. *)
let inner_loop ~expected workload tally =
  ignore (Spans.take ());
  (match workload with
   | "search" ->
     List.iter
       (fun (k : Plan.skernel) ->
         let spec = Plan.spec_of k.kname in
         let tests = Stoke.make_tests ~seed:(Int64.of_int (seed + 100)) spec in
         ignore
           (replay ~engine:default_engine ~label:"default" ~capture:false
              ~eta:(Ulp.of_float k.eta) spec tests))
       Plan.search_kernels
   | "check" ->
     let shipped = Array.of_list Plan.shipped_pairs in
     List.iteri
       (fun i (p : Plan.pair) ->
         Spans.with_ ~trace:(Spans.new_trace ()) "bench.replay.check" (fun () ->
             replay_validation tally expected p ~seed:1;
             let k, _, rewrite = shipped.(i mod Array.length shipped) in
             Spans.with_ "verify.check" (fun () ->
                 ignore (Verify.Verifier.check ~taylor:Plan.taylor (Plan.spec_of k) ~rewrite ~eta:Ulp.zero))))
       (Plan.validation_pairs expected.Plan.winners)
   | w -> invalid_arg ("Layers.inner_loop: " ^ w));
  Spans.take ()

(* ---------- the sweep ---------- *)

let sweep ~out_dir ~expected ~serve_stats tally =
  let skips = ref [] in
  let spec = Plan.spec_of kname in
  let tests = Stoke.make_tests ~seed:(Int64.of_int (seed + 100)) spec in
  let ulp_a = Array.init 4096 (fun i -> Int64.float_of_bits (Int64.of_int (i * 7919 * 104729))) in
  timed "fpbits.ulp_dist" 400_000 (fun i ->
      ignore (Sys.opaque_identity (Ulp.dist64 ulp_a.(i land 4095) ulp_a.((i * 31) land 4095))));
  let m, b32, native = sweep_sandbox ~skips spec tests in
  let screened, rejected, stream, final =
    replay ~engine:default_engine ~label:"default" ~capture:true ~eta spec tests
  in
  List.iter
    (fun e ->
      if e <> Sandbox.Exec.Native || Option.is_some native then begin
        let _, _, _, h = replay ~engine:e ~label:(ename e) ~capture:false ~eta spec tests in
        Tally.check tally (h = final) "replay under %s diverged from the default engine" (ename e)
      end)
    engines;
  let _, _, _, h = replay ~cutoff:false ~engine:default_engine ~label:"full" ~capture:false ~eta spec tests in
  Tally.check tally (h = final) "replay without a cutoff diverged";
  (* per-proposal translation, on the replayed stream *)
  let k = Array.length stream in
  timed "sandbox.compiled.prepare" k (fun i ->
      ignore (Sys.opaque_identity (Sandbox.Compiled.compile m stream.(i))));
  timed "sandbox.batched.prepare" k (fun i ->
      ignore (Sys.opaque_identity (Sandbox.Batched.compile b32 stream.(i))));
  let fallbacks =
    Option.map
      (fun nb ->
        timed "sandbox.native.prepare" k (fun i ->
            ignore (Sys.opaque_identity (Sandbox.Native.compile nb stream.(i))));
        Array.fold_left (fun n p -> if Sandbox.Native.compile nb p = None then n + 1 else n) 0 stream)
      native
  in
  (* whole-search counters, and both runs checked against the oracle *)
  let k_exp = List.hd Plan.search_kernels in
  let search job =
    let r = Spans.with_ ~trace:(Spans.new_trace ()) "core.optimize" (fun () -> Plan.run_search job) in
    let key = Plan.search_key job in
    Tally.check tally
      (match (List.assoc_opt key expected.Plan.searches, r.Search.Optimizer.best_correct) with
       | Some (h, _, _), Some p -> Plan.hash_hex p = h
       | _ -> false)
      "%s: winner differs from the expected entry" key;
    r
  in
  Sandbox.Exec.Counters.reset ();
  Sandbox.Exec.Counters.enable ();
  let r = search (Plan.Fixed { k = k_exp; seed }) in
  let instrs = (Sandbox.Exec.Counters.snapshot ()).Sandbox.Exec.Counters.instrs in
  Sandbox.Exec.Counters.disable ();
  let rt = search (Plan.To_target { k = k_exp; seed }) in
  let params = Search.Cost.default_params ~eta in
  timed "search.cost_create" 10 (fun _ ->
      ignore (Search.Cost.create spec params tests : Search.Cost.t));
  (* a checkpoint the size a serve job writes *)
  let job = Plan.fresh_job seed in
  let jspec = Plan.spec_of job.Plan.skernel in
  let config = Plan.search_config ~seed ~proposals:job.Plan.sproposals () in
  let g = Rng.Xoshiro256.create 1L in
  let pub =
    Search.Optimizer.warm_pub config ~rng:(Rng.Xoshiro256.state g)
      ~master_rng:(Rng.Xoshiro256.state (Rng.Xoshiro256.split g))
      jspec.Sandbox.Spec.program
  in
  let snap =
    {
      Search.Snapshot.version = Search.Snapshot.current_version;
      fingerprint =
        Search.Snapshot.fingerprint ~spec:jspec
          ~params:(Search.Cost.default_params ~eta:(Ulp.of_float job.Plan.seta))
          ~config
          ~tests:(Stoke.make_tests ~seed:(Int64.of_int (seed + 100)) jspec)
          ~domains:1;
      domains = 1;
      stop_reason = None;
      elapsed_s = 0.;
      chains = [| Some pub |];
    }
  in
  let snap_path = Filename.concat out_dir "layer.snap" in
  timed "search.snapshot_write" 10 (fun _ -> Search.Snapshot.write ~path:snap_path snap);
  (* validation *)
  let errfn = Validate.Errfn.create spec ~rewrite:(List.assoc kname expected.Plan.winners) in
  let vg = Rng.Xoshiro256.create 3L in
  let inputs = Array.init 256 (fun _ -> Sandbox.Spec.random_floats vg spec) in
  timed "validate.errfn" 1_000 (fun i ->
      ignore (Sys.opaque_identity (Validate.Errfn.eval_both errfn inputs.(i land 255))));
  let iterations =
    Plan.validation_pairs expected.Plan.winners
    |> List.filter (fun (p : Plan.pair) ->
           List.mem p.pname [ "exp/winner"; "sin/winner"; "sin/sin_assoc" ])
    |> List.map (fun (p : Plan.pair) ->
           let v =
             Spans.with_ ~trace:(Spans.new_trace ()) "core.validate" (fun () ->
                 Plan.run_validate p ~seed:1)
           in
           (match List.assoc_opt (Plan.validate_key p ~seed:1) expected.Plan.verdicts with
            | Some (e, _, _, it) ->
              Tally.check tally
                (Ulp.to_string v.Validate.Driver.max_err = e && v.Validate.Driver.iterations = it)
                "%s: verdict differs from the expected entry" p.pname
            | None -> Tally.record tally (Error (p.pname ^ ": no expected entry")));
           float_of_int v.Validate.Driver.iterations)
  in
  (* Geweke at the check lengths Validate.Driver uses *)
  let cfg = Plan.validate_config ~seed:1 in
  let lengths =
    Array.init
      (((cfg.Validate.Driver.max_proposals - cfg.Validate.Driver.min_samples)
        / cfg.Validate.Driver.check_every)
      + 1)
      (fun i -> cfg.Validate.Driver.min_samples + (i * cfg.Validate.Driver.check_every))
  in
  let chain = Array.init cfg.Validate.Driver.max_proposals (fun _ -> Rng.Dist.float vg 1.) in
  timed "stats.geweke" (Array.length lengths) (fun i ->
      ignore (Sys.opaque_identity (Stats.Geweke.z_statistic (Array.sub chain 0 lengths.(i)))));
  (* verification, in the deterministic box-budget mode *)
  let pairs = Array.of_list Plan.shipped_pairs in
  let boxes =
    Array.fold_left
      (fun n (k, _, rewrite) ->
        match Verify.Verifier.check ~taylor:Plan.taylor (Plan.spec_of k) ~rewrite ~eta:Ulp.zero with
        | Verify.Verifier.Taylor_bound a -> n + a.Verify.Taylor.boxes_explored
        | _ -> n)
      0 pairs
  in
  timed "verify.check" (Array.length pairs) (fun i ->
      let k, _, rewrite = pairs.(i) in
      ignore (Verify.Verifier.check ~taylor:Plan.taylor (Plan.spec_of k) ~rewrite ~eta:Ulp.zero));
  (* serve, parsed and recorded in-process *)
  let lines =
    Array.init 64 (fun i ->
        Serve.Protocol.request_to_string (Plan.serve_request ~tenant:"jobs" (Plan.fresh_job (i + 1))))
  in
  timed "serve.parse" 4_000 (fun i ->
      ignore (Sys.opaque_identity (Serve.Protocol.request_of_string lines.(i land 63))));
  let memo_dir = Filename.concat out_dir "layer-memo" in
  Measure.rm_rf memo_dir;
  let memo = Serve.Memo.create ~state_dir:memo_dir in
  let digests = Array.map Serve.Memo.digest_of_key lines in
  let job_json = Obs.Json.Obj [ ("request", Obs.Json.String lines.(0)) ] in
  timed "serve.memo_record" 100 (fun i -> Serve.Memo.record_job memo digests.(i land 63) job_json);
  Array.iter (fun d -> Serve.Memo.store memo d job_json) digests;
  timed "serve.memo_find" 4_000 (fun i ->
      ignore (Sys.opaque_identity (Serve.Memo.find memo digests.(i land 63))));
  let sink = Obs.Sink.to_file (Filename.concat out_dir "layer-emit.jsonl") in
  timed "obs.emit" 4_000 (fun i ->
      Obs.Sink.emit sink "checkpoint" [ ("iter", Obs.Json.Int i); ("best_total", Obs.Json.Float 104.) ]);
  Obs.Sink.close sink;
  (* rows *)
  let spans = Spans.take () in
  let rows = ref [] in
  let add name unit_ = function
    | Some value -> rows := { name; value; unit_ } :: !rows
    | None -> ()
  in
  let op name scale = Option.map (fun s -> s *. scale) (Spans.per_op spans name) in
  let frac a b = if b = 0 then None else Some (float_of_int a /. float_of_int b) in
  add "fpbits.ulp_dist_ns" "ns" (op "fpbits.ulp_dist" 1e9);
  add "sandbox.restore_ns" "ns" (op "sandbox.restore" 1e9);
  List.iter
    (fun e ->
      let e = ename e in
      add (Printf.sprintf "sandbox.%s.lane1_ns" e) "ns" (op (Printf.sprintf "sandbox.%s.lane1" e) 1e9);
      add (Printf.sprintf "sandbox.%s.lane32_ns" e) "ns" (op (Printf.sprintf "sandbox.%s.lane32" e) 1e9))
    engines;
  List.iter
    (fun e -> add (Printf.sprintf "sandbox.%s.prepare_us" e) "us" (op (Printf.sprintf "sandbox.%s.prepare" e) 1e6))
    [ "compiled"; "batched"; "native" ];
  add "sandbox.native.fallback_frac" "fraction" (Option.bind fallbacks (fun f -> frac f k));
  add "analysis.screen_ns" "ns" (op "analysis.screen" 1e9);
  add "analysis.screen_reject_frac" "fraction" (frac rejected screened);
  add "search.propose_ns" "ns"
    (match (op "search.propose" 1e9, op "search.undo" 1e9) with
     | Some p, Some u -> Some (p +. u)
     | _ -> None);
  add "search.cost_eval_us" "us" (op "search.cost_eval.default" 1e6);
  List.iter
    (fun e -> add (Printf.sprintf "search.cost_eval.%s_us" (ename e)) "us" (op ("search.cost_eval." ^ ename e) 1e6))
    engines;
  add "search.cost_eval_full_us" "us" (op "search.cost_eval.full" 1e6);
  let evals = r.Search.Optimizer.evaluations in
  add "search.tests_per_eval" "tests" (frac r.Search.Optimizer.tests_executed evals);
  add "search.prune_frac" "fraction" (frac r.Search.Optimizer.pruned_evals evals);
  add "search.cache_hit_frac" "fraction" (frac r.Search.Optimizer.cache_hits evals);
  add "search.instrs_per_proposal" "instrs" (frac instrs r.Search.Optimizer.proposals_made);
  add "search.accept_frac" "fraction" (frac rt.Search.Optimizer.accepted rt.Search.Optimizer.proposals_made);
  add "search.proposals_to_target" "proposals" (Some (float_of_int rt.Search.Optimizer.proposals_made));
  add "search.cost_create_ms" "ms" (op "search.cost_create" 1e3);
  add "search.snapshot_write_ms" "ms" (op "search.snapshot_write" 1e3);
  add "validate.errfn_us" "us" (op "validate.errfn" 1e6);
  add "validate.iterations" "iterations" (Some (Measure.mean iterations));
  add "stats.geweke_ms" "ms" (op "stats.geweke" 1e3);
  add "verify.check_ms" "ms" (op "verify.check" 1e3);
  add "verify.boxes" "boxes" (frac boxes (Array.length pairs));
  let (st : Wserve.stats) = serve_stats in
  (* a session whose jobs all failed has no figures; its failures are
     already counted *)
  let over f xs = if xs = [] then None else Some (f xs) in
  add "serve.queue_wait_ms" "ms" (over Measure.median st.queue_wait_ms);
  add "serve.run_ms" "ms" (over Measure.median st.run_ms);
  add "serve.events_per_job" "events" (over Measure.mean (List.map float_of_int st.events));
  add "serve.bytes_per_job" "bytes" (over Measure.mean (List.map float_of_int st.bytes));
  add "serve.parse_us" "us" (op "serve.parse" 1e6);
  add "serve.memo_record_us" "us" (op "serve.memo_record" 1e6);
  add "serve.memo_find_us" "us" (op "serve.memo_find" 1e6);
  add "obs.emit_ns" "ns" (op "obs.emit" 1e9);
  (List.rev !rows, !skips, spans)

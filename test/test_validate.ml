(* Tests for the validate library: the error function of Eq. 13, the
   clipped Gaussian proposals of Eq. 16, and the MCMC max-error driver with
   Geweke termination. *)

let exp_spec = Kernels.S3d.exp_spec

(* exp with the last Horner refinement term removed — a genuinely lower
   precision rewrite whose maximum error we can also find by brute force. *)
let truncated_exp =
  let instrs = Program.instrs Kernels.S3d.exp_program in
  let n = List.length instrs in
  (* remove the 4-instruction Horner step just before the 2^k scaling
     epilogue (5 instructions) *)
  Program.of_instrs (List.filteri (fun i _ -> i < n - 9 || i >= n - 5) instrs)

let errfn_tests =
  [
    Alcotest.test_case "identical program has zero error" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:Kernels.S3d.exp_program in
        List.iter
          (fun x ->
            Alcotest.(check int64) "zero" 0L (Validate.Errfn.eval_ulp e [| x |]))
          [ -3.; -1.5; -0.25; 0. ]);
    Alcotest.test_case "truncated exp has positive error" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        Alcotest.(check bool)
          "err > 0" true
          (Ulp.compare (Validate.Errfn.eval_ulp e [| -2.9 |]) 0L > 0));
    Alcotest.test_case "signalling rewrite charges top" `Quick (fun () ->
        let bad = Parser.parse_program_exn "movsd (rax), xmm0" in
        let e = Validate.Errfn.create exp_spec ~rewrite:bad in
        Alcotest.(check int64)
          "max" Ulp.max_value
          (Validate.Errfn.eval_ulp e [| -1. |]);
        Alcotest.(check (float 0.))
          "float top" Validate.Errfn.top_eta
          (Validate.Errfn.eval e [| -1. |]));
    Alcotest.test_case "eval is to_float of eval_ulp" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let u = Validate.Errfn.eval_ulp e [| -2. |] in
        Alcotest.(check (float 1.))
          "consistent" (Ulp.to_float u)
          (Validate.Errfn.eval e [| -2. |]));
    Alcotest.test_case "eval_both agrees with the separate evaluators" `Quick
      (fun () ->
        let check_input e xs =
          let f, u = Validate.Errfn.eval_both e xs in
          Alcotest.(check (float 0.)) "float half" (Validate.Errfn.eval e xs) f;
          Alcotest.(check int64) "ulp half" (Validate.Errfn.eval_ulp e xs) u
        in
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        List.iter (fun x -> check_input e [| x |]) [ -3.; -1.7; -0.3; 0. ];
        (* divergent rewrites hit both sentinels at once *)
        let bad = Parser.parse_program_exn "movsd (rax), xmm0" in
        check_input (Validate.Errfn.create exp_spec ~rewrite:bad) [| -1. |]);
  ]

(* [Errfn]'s answer computed the long way: install the testcase the
   spec builds, run each program on a fresh machine, and sum
   [Spec.value_ulp] over the outputs [Spec.read_outputs] reads. *)
let reference_ulp (spec : Sandbox.Spec.t) rewrite xs =
  let run p =
    let m = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
    Sandbox.Testcase.apply (Sandbox.Spec.testcase_of_floats spec xs) m;
    match (Sandbox.Exec.run m p).Sandbox.Exec.outcome with
    | Sandbox.Exec.Finished -> Some (Sandbox.Spec.read_outputs spec m)
    | Sandbox.Exec.Faulted _ -> None
  in
  match (run spec.Sandbox.Spec.program, run rewrite) with
  | Some e, Some a ->
    let total = ref Ulp.zero in
    Array.iteri (fun i v -> total := Ulp.add_sat !total (Sandbox.Spec.value_ulp v a.(i))) e;
    !total
  | _ -> Ulp.max_value

let zero_all = Parser.parse_program_exn "xorps xmm0, xmm0\nxorps xmm1, xmm1\nxorps xmm2, xmm2\nxorps xmm3, xmm3\nxorps xmm4, xmm4\nxorps xmm5, xmm5"

let install_tests =
  [
    Alcotest.test_case "every registry pair matches the reference" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 22L in
        List.iter
          (fun (name, spec) ->
            let _, rewrite = Kernels.Registry.shipped_rewrite name spec in
            List.iter
              (fun rewrite ->
                let e = Validate.Errfn.create spec ~rewrite in
                for _ = 1 to 30 do
                  let xs = Sandbox.Spec.random_floats g spec in
                  Alcotest.(check int64) name (reference_ulp spec rewrite xs)
                    (Validate.Errfn.eval_ulp e xs)
                done)
              [ rewrite; zero_all ])
          Kernels.Registry.all);
    Alcotest.test_case "eval_both is bit-identical on every engine" `Quick (fun () ->
        let engines =
          List.filter Sandbox.Engine.available Sandbox.Engine.all
        in
        List.iter
          (fun (name, spec, rewrite) ->
            let errfns =
              List.map (fun engine -> (engine, Validate.Errfn.create ~engine spec ~rewrite)) engines
            in
            let g = Rng.Xoshiro256.create 23L in
            let p = Validate.Proposal.create spec in
            let xs = Validate.Proposal.initial g p in
            let count = Bytes.create 8 in
            for _ = 1 to 100 do
              ignore (Validate.Proposal.step_into g p ~src:xs ~dst:xs : bool);
              let want_f, want_u = Validate.Errfn.eval_both (snd (List.hd errfns)) xs in
              List.iter
                (fun (engine, e) ->
                  let f, u = Validate.Errfn.eval_both e xs in
                  let what = name ^ " on " ^ Sandbox.Exec.engine_to_string engine in
                  Alcotest.(check int64) what want_u u;
                  Validate.Errfn.eval_into e xs count;
                  Alcotest.(check int64) (what ^ " (eval_into)") want_u
                    (Bytes.get_int64_le count 0);
                  Alcotest.(check int64) what (Int64.bits_of_float want_f)
                    (Int64.bits_of_float f))
                errfns
            done)
          [
            ("exp", exp_spec, truncated_exp);
            ("dot", Kernels.Aek_kernels.dot_spec, Kernels.Aek_kernels.dot_rewrite);
            ("delta", Kernels.Aek_kernels.delta_spec, Kernels.Aek_kernels.delta_rewrite);
          ]);
    Alcotest.test_case "a vector of the wrong length is rejected" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        List.iter
          (fun xs ->
            match Validate.Errfn.eval e xs with
            | _ -> Alcotest.failf "%d floats accepted" (Array.length xs)
            | exception Invalid_argument _ -> ())
          [ [||]; [| -1.; -2. |] ]);
  ]

let proposal_tests =
  [
    Alcotest.test_case "initial draws stay in range" `Quick (fun () ->
        let p = Validate.Proposal.create exp_spec in
        let g = Rng.Xoshiro256.create 1L in
        for _ = 1 to 500 do
          let xs = Validate.Proposal.initial g p in
          if xs.(0) < -3. || xs.(0) > 0. then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "steps stay in range (clipping)" `Quick (fun () ->
        let p = Validate.Proposal.create ~sigma:5.0 exp_spec in
        let g = Rng.Xoshiro256.create 2L in
        let xs = ref [| -1.5 |] in
        for _ = 1 to 2_000 do
          xs := Validate.Proposal.step g p !xs;
          if !xs.(0) < -3. || !xs.(0) > 0. then Alcotest.fail "escaped range"
        done);
    Alcotest.test_case "steps actually move" `Quick (fun () ->
        let p = Validate.Proposal.create exp_spec in
        let g = Rng.Xoshiro256.create 3L in
        let xs = Validate.Proposal.step g p [| -1.5 |] in
        Alcotest.(check bool) "moved" true (xs.(0) <> -1.5));
    Alcotest.test_case "degenerate range is never moved" `Quick (fun () ->
        let p = Validate.Proposal.create Kernels.Aek_kernels.delta_spec in
        let g = Rng.Xoshiro256.create 4L in
        let xs = ref (Validate.Proposal.initial g p) in
        for _ = 1 to 200 do
          xs := Validate.Proposal.step g p !xs;
          Alcotest.(check (float 0.)) "pinned" 0. !xs.(4)
        done);
    Alcotest.test_case "step_into draws what step draws" `Quick (fun () ->
        let p = Validate.Proposal.create Kernels.Aek_kernels.delta_spec in
        let g = Rng.Xoshiro256.create 6L and h = Rng.Xoshiro256.create 6L in
        let xs = Validate.Proposal.initial g p in
        ignore (Validate.Proposal.initial h p);
        let into = Array.copy xs and spare = Array.make (Array.length xs) 0. in
        let stepped = ref xs in
        for _ = 1 to 100 do
          stepped := Validate.Proposal.step g p !stepped;
          (* alternate a separate buffer with stepping in place *)
          ignore (Validate.Proposal.step_into h p ~src:into ~dst:spare : bool);
          ignore (Validate.Proposal.step_into h p ~src:spare ~dst:into : bool);
          stepped := Validate.Proposal.step g p !stepped;
          Alcotest.(check (array (float 0.))) "same walk" !stepped into
        done);
    Alcotest.test_case "step_into says whether a bit changed" `Quick (fun () ->
        (* exp's range is 3 wide and sin's 2π, so many N(0, 1) steps leave
           it and keep the point: both answers must come up, each exactly
           when the point's bits did (or did not) change *)
        List.iter
          (fun spec ->
            let p = Validate.Proposal.create spec in
            let g = Rng.Xoshiro256.create 8L in
            let xs = Validate.Proposal.initial g p in
            let dst = Array.make (Array.length xs) 0. in
            let kept = ref 0 in
            for i = 1 to 2_000 do
              let before = Array.copy xs in
              (* alternate a separate buffer with stepping in place *)
              let moved =
                if i mod 2 = 0 then Validate.Proposal.step_into g p ~src:xs ~dst:xs
                else begin
                  let moved = Validate.Proposal.step_into g p ~src:xs ~dst in
                  Array.blit dst 0 xs 0 (Array.length xs);
                  moved
                end
              in
              let changed =
                Array.exists2
                  (fun a b -> Int64.bits_of_float a <> Int64.bits_of_float b)
                  before xs
              in
              Alcotest.(check bool) "moved iff a bit changed" changed moved;
              if not moved then incr kept
            done;
            Alcotest.(check bool) "some steps kept the point" true
              (!kept > 0 && !kept < 2_000))
          [ exp_spec; Kernels.Libimf.sin_spec ]);
    Alcotest.test_case "step does not mutate its argument" `Quick (fun () ->
        let p = Validate.Proposal.create exp_spec in
        let g = Rng.Xoshiro256.create 5L in
        let xs = [| -1.5 |] in
        ignore (Validate.Proposal.step g p xs);
        Alcotest.(check (float 0.)) "unchanged" (-1.5) xs.(0));
  ]

(* The hunt as it was before a candidate equal to the current point was
   skipped: plain Metropolis with σ = 1 that runs every candidate,
   counting the ones whose bits moved. *)
type reference = {
  max_err : Ulp.t;
  series : float array;  (** the current error after each step *)
  moved : int;
}

let bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let reference_hunt ~seed ~proposals spec e =
  let g = Rng.Xoshiro256.create seed in
  let p = Validate.Proposal.create spec in
  let cur = ref (Validate.Proposal.initial g p) in
  let cur_err, max_err = Validate.Errfn.eval_both e !cur in
  let cur_err = ref cur_err and max_err = ref max_err and moved = ref 0 in
  let series =
    Array.init proposals (fun _ ->
        let candidate = Validate.Proposal.step g p !cur in
        if not (bit_equal candidate !cur) then incr moved;
        let err, exact = Validate.Errfn.eval_both e candidate in
        if
          err >= !cur_err
          || Rng.Dist.float g 1.0 < (err +. 1.) /. (!cur_err +. 1.)
        then begin
          cur := candidate;
          cur_err := err
        end;
        if Ulp.compare exact !max_err > 0 then max_err := exact;
        !cur_err)
  in
  { max_err = !max_err; series; moved = !moved }

(* [f ()] and the program runs it made. *)
let counting_runs f =
  Sandbox.Exec.Counters.enable ();
  Fun.protect ~finally:Sandbox.Exec.Counters.disable (fun () ->
      Sandbox.Exec.Counters.reset ();
      let x = f () in
      ((Sandbox.Exec.Counters.snapshot ()).Sandbox.Exec.Counters.runs, x))

let quick_config =
  {
    Validate.Driver.default_config with
    Validate.Driver.max_proposals = 60_000;
    min_samples = 10_000;
    check_every = 10_000;
  }

let brute_force_max e lo hi n =
  let best = ref Ulp.zero in
  for i = 0 to n do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int n) in
    let u = Validate.Errfn.eval_ulp e [| x |] in
    if Ulp.compare u !best > 0 then best := u
  done;
  !best

let driver_tests =
  [
    Alcotest.test_case "a reused sample buffer changes nothing" `Quick (fun () ->
        (* hunts hand their sample buffer on to the next hunt, stale
           samples and all *)
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let short () = Validate.Driver.run ~config:quick_config ~eta:0L e in
        let series () =
          Validate.Driver.sample ~sigma:0.1 ~seed:4L ~proposals:3000 e
        in
        let v0 = short () and _, _, s0 = series () in
        let s0' = Array.copy s0 in
        let other = Validate.Errfn.create exp_spec ~rewrite:Kernels.S3d.exp_program in
        ignore (Validate.Driver.sample ~sigma:0.5 ~seed:9L ~proposals:50_000 other);
        let v1 = short () and _, _, s1 = series () in
        Alcotest.(check (array (float 0.))) "a returned series is not overwritten" s0' s0;
        Alcotest.(check (array (float 0.))) "same series" s0 s1;
        Alcotest.(check int64) "same max" v0.Validate.Driver.max_err v1.Validate.Driver.max_err;
        Alcotest.(check int) "same iterations" v0.Validate.Driver.iterations
          v1.Validate.Driver.iterations;
        Alcotest.(check int64) "same Z bits"
          (Int64.bits_of_float v0.Validate.Driver.geweke_z)
          (Int64.bits_of_float v1.Validate.Driver.geweke_z));
    Alcotest.test_case "identical rewrite validates at eta 0" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:Kernels.S3d.exp_program in
        let v = Validate.Driver.run ~config:quick_config ~eta:0L e in
        Alcotest.(check int64) "max 0" 0L v.Validate.Driver.max_err;
        Alcotest.(check bool) "mixed" true v.Validate.Driver.mixed;
        Alcotest.(check bool) "validated" true v.Validate.Driver.validated);
    Alcotest.test_case "finds errors close to brute force" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let brute = brute_force_max e (-3.) 0. 20_000 in
        let v = Validate.Driver.run ~config:quick_config ~eta:0L e in
        (* MCMC should find at least half the brute-force maximum (in
           practice it finds more; brute force itself is only a grid) *)
        Alcotest.(check bool)
          (Printf.sprintf "mcmc %s vs brute %s" (Ulp.to_string v.Validate.Driver.max_err)
             (Ulp.to_string brute))
          true
          (Ulp.to_float v.Validate.Driver.max_err >= 0.5 *. Ulp.to_float brute));
    Alcotest.test_case "validated flag respects eta" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let v_strict = Validate.Driver.run ~config:quick_config ~eta:1L e in
        Alcotest.(check bool) "strict fails" false v_strict.Validate.Driver.validated;
        let v_loose =
          Validate.Driver.run ~config:quick_config ~eta:(Ulp.of_float 1e16) e
        in
        Alcotest.(check bool)
          "loose passes when mixed" v_loose.Validate.Driver.mixed
          v_loose.Validate.Driver.validated);
    Alcotest.test_case "max_err_input reproduces max_err" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let v = Validate.Driver.run ~config:quick_config ~eta:0L e in
        Alcotest.(check int64)
          "reproducible" v.Validate.Driver.max_err
          (Validate.Errfn.eval_ulp e v.Validate.Driver.max_err_input));
    Alcotest.test_case "trace best is non-decreasing" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let v = Validate.Driver.run ~config:quick_config ~eta:0L e in
        let rec go = function
          | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              "monotone" true
              (b.Validate.Driver.best_err >= a.Validate.Driver.best_err);
            go rest
          | _ -> ()
        in
        go v.Validate.Driver.trace);
    Alcotest.test_case "all four strategies run" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let tiny =
          { quick_config with Validate.Driver.max_proposals = 5_000; min_samples = 1_000;
            check_every = 1_000 }
        in
        (* every field pinned to the bit: the strategies share one hunt
           loop, so a change to it must not move any of them *)
        List.iter
          (fun (s, name, max_err, iterations, mixed, z) ->
            let v = Validate.Driver.run_strategy ~config:tiny ~strategy:s ~eta:0L e in
            Alcotest.(check bool) "found something" true
              (Ulp.compare v.Validate.Driver.max_err 0L > 0);
            Alcotest.(check int64) (name ^ " max_err") max_err
              v.Validate.Driver.max_err;
            Alcotest.(check int) (name ^ " iterations") iterations
              v.Validate.Driver.iterations;
            Alcotest.(check bool) (name ^ " mixed") mixed v.Validate.Driver.mixed;
            Alcotest.(check int64) (name ^ " geweke_z (bits)") z
              (Int64.bits_of_float v.Validate.Driver.geweke_z))
          [
            (`Mcmc, "mcmc", 1241947775740355L, 2_000, true, 0xbf97c6d4665cf16eL);
            (`Hill, "hill", 1243018554508404L, 5_000, false, 0xc00010d42aeb3ac9L);
            (`Anneal, "anneal", 1241947775740355L, 2_000, true,
             0xbfd464ecf0a3db41L);
            (`Random, "random", 1242212688734022L, 3_000, true,
             0x3f981f3949e8bd78L);
          ]);
    Alcotest.test_case "deterministic for a fixed seed" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let v1 = Validate.Driver.run ~config:quick_config ~eta:0L e in
        let v2 = Validate.Driver.run ~config:quick_config ~eta:0L e in
        Alcotest.(check int64) "same max" v1.Validate.Driver.max_err v2.Validate.Driver.max_err);
  ]

(* ---- regression pins for the driver bug sweep ---- *)

let regression_tests =
  [
    Alcotest.test_case "budget below min_samples never claims mixing" `Quick
      (fun () ->
        (* regression: the final mixing check used to gate on a hardcoded
           [>= 100] samples rather than [config.min_samples], so a run
           whose budget ended under the configured floor could still claim
           convergence from an undersized chain *)
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let starved =
          { quick_config with Validate.Driver.max_proposals = 500 }
        in
        let v = Validate.Driver.run ~config:starved ~eta:0L e in
        Alcotest.(check int) "ran its full budget" 500
          v.Validate.Driver.iterations;
        Alcotest.(check bool) "not mixed" false v.Validate.Driver.mixed;
        Alcotest.(check bool) "not validated" false
          v.Validate.Driver.validated);
    Alcotest.test_case "no duplicate geweke check on a check_every boundary"
      `Quick (fun () ->
        (* regression: when [max_proposals] is an exact multiple of
           [check_every], the periodic schedule checks at the final
           iteration and the end-of-budget fallback used to check the
           same (unchanged) chain again, emitting a duplicate "geweke"
           event and recomputing the statistic for nothing *)
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let config =
          { quick_config with Validate.Driver.max_proposals = 2_000;
            min_samples = 100; check_every = 1_000;
            (* |z| < 0 is unsatisfiable: never mixes, always runs the
               full budget, so the boundary case is guaranteed *)
            z_threshold = 0. }
        in
        let geweke_iters sink =
          List.filter_map
            (fun (ev : Obs.Sink.event) ->
              if String.equal ev.Obs.Sink.name "geweke" then
                List.assoc_opt "iter" ev.Obs.Sink.fields
              else None)
            (Obs.Sink.drain sink)
        in
        (* a refuting run at the η ceiling never refutes, so it shares
           the boundary *)
        List.iter
          (fun refute ->
            let sink = Obs.Sink.memory () in
            let v =
              Validate.Driver.run ~obs:sink ~config ~refute
                ~eta:Ulp.max_value e
            in
            Alcotest.(check int) "full budget" 2_000
              v.Validate.Driver.iterations;
            Alcotest.(check (list int)) "one check per schedule point"
              [ 1_000; 2_000 ]
              (List.map (function Obs.Json.Int i -> i | _ -> -1)
                 (geweke_iters sink)))
          [ false; true ]);
    Alcotest.test_case "driver executes each input exactly once" `Quick
      (fun () ->
        (* regression: the driver used to query the float error and the
           exact ULP count separately, running every input through both
           programs twice.  Pin the execution count: 2 programs (target +
           rewrite) x (1 initial point + the candidates that moved), and
           the walk of a hunt that runs every candidate. *)
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let iters = 200 in
        let r = reference_hunt ~seed:7L ~proposals:iters exp_spec e in
        let runs, (max_err, _, samples) =
          counting_runs (fun () ->
              Validate.Driver.sample ~sigma:1.0 ~seed:7L ~proposals:iters e)
        in
        Alcotest.(check int) "one pair of runs per moved input"
          (2 * (1 + r.moved)) runs;
        Alcotest.(check int64) "max_err" r.max_err max_err;
        Alcotest.(check bool) "the same walk" true
          (bit_equal r.series samples));
    Alcotest.test_case "a candidate that keeps the point is not run" `Quick
      (fun () ->
        (* sin/sin_assoc keeps the point on about a third of its steps.
           The verdict is pinned as a hunt that ran every candidate
           recorded it, and the count of runs as 2 x (1 + the candidates
           that moved), far below the 2 x (8000 + 1) of running them
           all. *)
        let spec = Kernels.Libimf.sin_spec in
        let e = Validate.Errfn.create spec ~rewrite:Kernels.Libimf.sin_assoc_rewrite in
        let config =
          { Validate.Driver.default_config with
            Validate.Driver.max_proposals = 20_000; min_samples = 4_000;
            check_every = 4_000; seed = 3L }
        in
        let runs, v =
          counting_runs (fun () -> Validate.Driver.run ~config ~eta:0L e)
        in
        Alcotest.(check string) "max_err" "1321"
          (Ulp.to_string v.Validate.Driver.max_err);
        Alcotest.(check int) "iterations" 8_000 v.Validate.Driver.iterations;
        Alcotest.(check bool) "mixed" true v.Validate.Driver.mixed;
        Alcotest.(check int64) "geweke_z bits" 0xbfdb9154c0f5ba97L
          (Int64.bits_of_float v.Validate.Driver.geweke_z);
        let r = reference_hunt ~seed:3L ~proposals:8_000 spec e in
        Alcotest.(check int64) "max_err as a hunt running every candidate"
          r.max_err v.Validate.Driver.max_err;
        Alcotest.(check int) "one pair of runs per moved input"
          (2 * (1 + r.moved)) runs;
        Alcotest.(check int) "runs" 9_958 runs);
  ]

(* ---- early refutation ([run ~refute:true], the frontier's validator) ---- *)

let refute_config =
  { quick_config with Validate.Driver.max_proposals = 5_000;
    min_samples = 1_000; check_every = 1_000 }

(* A verdict and its event stream. *)
let traced_run ?refute ~eta e =
  let sink = Obs.Sink.memory () in
  let v = Validate.Driver.run ~obs:sink ~config:refute_config ?refute ~eta e in
  (v, Obs.Sink.drain sink)

let named name evs =
  List.filter (fun (ev : Obs.Sink.event) -> String.equal ev.Obs.Sink.name name) evs

let int_field k (ev : Obs.Sink.event) =
  Option.bind (List.assoc_opt k ev.Obs.Sink.fields) Obs.Json.to_int_opt

let refuted_field evs =
  Option.bind
    (List.assoc_opt "refuted"
       (List.hd (named "validate_end" evs)).Obs.Sink.fields)
    Obs.Json.to_bool_opt

let refute_tests =
  [
    Alcotest.test_case "refuting run at the eta ceiling is the plain run"
      `Quick (fun () ->
        (* η at the ceiling: refutation can never fire, so the stopping
           rules left are the ones [run] has *)
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let plain, plain_evs = traced_run ~eta:Ulp.max_value e in
        let refuting, refuting_evs =
          traced_run ~refute:true ~eta:Ulp.max_value e
        in
        Alcotest.(check int64) "same max_err" plain.Validate.Driver.max_err
          refuting.Validate.Driver.max_err;
        Alcotest.(check (array (float 0.))) "same max_err_input"
          plain.Validate.Driver.max_err_input
          refuting.Validate.Driver.max_err_input;
        Alcotest.(check int) "same iterations"
          plain.Validate.Driver.iterations refuting.Validate.Driver.iterations;
        Alcotest.(check bool) "same mixed" plain.Validate.Driver.mixed
          refuting.Validate.Driver.mixed;
        Alcotest.(check int64) "same geweke_z (bits)"
          (Int64.bits_of_float plain.Validate.Driver.geweke_z)
          (Int64.bits_of_float refuting.Validate.Driver.geweke_z);
        Alcotest.(check (list (option int))) "same geweke iterations"
          (List.map (int_field "iter") (named "geweke" plain_evs))
          (List.map (int_field "iter") (named "geweke" refuting_evs));
        Alcotest.(check (option bool)) "plain run not refuted" (Some false)
          (refuted_field plain_evs);
        Alcotest.(check (option bool)) "refuting run not refuted" (Some false)
          (refuted_field refuting_evs));
    Alcotest.test_case "stops at the first new maximum above eta" `Quick
      (fun () ->
        (* the initial point's error (~8.1e14 ULPs) sits below η = 1e15,
           so the chain must climb past η before it refutes *)
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let eta = Ulp.of_float 1e15 in
        let v, evs = traced_run ~refute:true ~eta e in
        Alcotest.(check int) "stopped at iteration 7" 7
          v.Validate.Driver.iterations;
        Alcotest.(check int64) "counterexample error" 1004012707375482L
          v.Validate.Driver.max_err;
        Alcotest.(check bool) "not mixed" false v.Validate.Driver.mixed;
        Alcotest.(check bool) "not validated" false v.Validate.Driver.validated;
        let maxima = named "val_new_max" evs in
        let last = List.nth maxima (List.length maxima - 1) in
        Alcotest.(check (option int)) "last new max is the stopping iteration"
          (Some v.Validate.Driver.iterations) (int_field "iter" last);
        List.iteri
          (fun i (ev : Obs.Sink.event) ->
            let err =
              Option.bind (List.assoc_opt "err_ulps" ev.Obs.Sink.fields)
                Obs.Json.to_float_opt
              |> Option.get
            in
            Alcotest.(check bool) "only the last new max clears eta"
              (i = List.length maxima - 1)
              (err > Ulp.to_float eta))
          maxima;
        Alcotest.(check int) "no geweke check" 0
          (List.length (named "geweke" evs));
        Alcotest.(check (option bool)) "validate_end says refuted" (Some true)
          (refuted_field evs));
    Alcotest.test_case "initial point above eta refutes after 0 iterations"
      `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        Sandbox.Exec.Counters.enable ();
        let v, evs =
          Fun.protect ~finally:Sandbox.Exec.Counters.disable (fun () ->
              Sandbox.Exec.Counters.reset ();
              let r = traced_run ~refute:true ~eta:(Ulp.of_float 1e3) e in
              Alcotest.(check int) "only the initial point ran" 2
                (Sandbox.Exec.Counters.snapshot ()).Sandbox.Exec.Counters.runs;
              r)
        in
        Alcotest.(check int) "0 iterations" 0 v.Validate.Driver.iterations;
        Alcotest.(check int64) "the initial point's error" 806673483377367L
          v.Validate.Driver.max_err;
        Alcotest.(check bool) "not mixed" false v.Validate.Driver.mixed;
        Alcotest.(check (option bool)) "validate_end says refuted" (Some true)
          (refuted_field evs));
  ]

let multi_chain_tests =
  [
    Alcotest.test_case "identical rewrite validates across chains" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:Kernels.S3d.exp_program in
        let config =
          { Validate.Multi_chain.default_config with
            Validate.Multi_chain.chains = 3; proposals_per_chain = 3_000 }
        in
        let v = Validate.Multi_chain.run ~config ~eta:0L e in
        Alcotest.(check int64) "zero err" 0L v.Validate.Multi_chain.max_err;
        Alcotest.(check bool) "mixed" true v.Validate.Multi_chain.mixed;
        Alcotest.(check bool) "validated" true v.Validate.Multi_chain.validated);
    Alcotest.test_case "finds the truncation error like the single chain" `Quick
      (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let config =
          { Validate.Multi_chain.default_config with
            Validate.Multi_chain.chains = 3; proposals_per_chain = 10_000 }
        in
        let v = Validate.Multi_chain.run ~config ~eta:0L e in
        Alcotest.(check bool)
          "substantial error found" true
          (Ulp.to_float v.Validate.Multi_chain.max_err > 1e9));
    Alcotest.test_case "per-chain maxima reported" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:truncated_exp in
        let config =
          { Validate.Multi_chain.default_config with
            Validate.Multi_chain.chains = 4; proposals_per_chain = 2_000 }
        in
        let v = Validate.Multi_chain.run ~config ~eta:0L e in
        Alcotest.(check int) "four" 4 (Array.length v.Validate.Multi_chain.per_chain_max);
        (* global max is the max of the per-chain maxima *)
        let m =
          Array.fold_left Ulp.max Ulp.zero v.Validate.Multi_chain.per_chain_max
        in
        Alcotest.(check int64) "consistent" m v.Validate.Multi_chain.max_err;
        (* each chain runs the driver's hunt: pin its maxima and the R̂
           across them to the bit *)
        Alcotest.(check (array int64)) "per-chain maxima"
          [| 1241404713657500L; 1242972249872755L; 1242721922658083L;
             1242929887109966L |]
          v.Validate.Multi_chain.per_chain_max;
        Alcotest.(check int64) "r_hat (bits)" 0x3ff0015afd7d836aL
          (Int64.bits_of_float v.Validate.Multi_chain.r_hat));
    Alcotest.test_case "fewer than two chains rejected" `Quick (fun () ->
        let e = Validate.Errfn.create exp_spec ~rewrite:Kernels.S3d.exp_program in
        let config =
          { Validate.Multi_chain.default_config with Validate.Multi_chain.chains = 1 }
        in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Validate.Multi_chain.run ~config ~eta:0L e);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "too short a chain rejected before any run" `Quick
      (fun () ->
        (* regression: 10 proposals over 4 chains used to run every chain
           and only then fail inside R̂ *)
        let e = Validate.Errfn.create exp_spec ~rewrite:Kernels.S3d.exp_program in
        let config =
          { Validate.Multi_chain.default_config with
            Validate.Multi_chain.chains = 4; proposals_per_chain = 2 }
        in
        Sandbox.Exec.Counters.enable ();
        Fun.protect ~finally:Sandbox.Exec.Counters.disable (fun () ->
            Sandbox.Exec.Counters.reset ();
            Alcotest.(check bool) "raises" true
              (try
                 ignore (Validate.Multi_chain.run ~config ~eta:0L e);
                 false
               with Invalid_argument _ -> true);
            Alcotest.(check int) "no chain ran" 0
              (Sandbox.Exec.Counters.snapshot ()).Sandbox.Exec.Counters.runs));
  ]

(* ---- allocation per validation sample ---- *)

(* A quarter of the minor words one [Driver.run] sample allocated when
   every sample built a [Testcase.t], a fresh proposal vector and a
   [Spec.value] array per run, and each Gaussian boxed its xoshiro
   draws (seed 1, 4000 proposals, dev profile).  A sample now allocates
   its RNG results, [eval_both]'s pair and the engine's [Exec.result]s;
   a per-instruction box, a per-run testcase or a per-sample list puts
   a kernel over. *)
let words_before =
  [ ("sin", 217.); ("log", 208.); ("tan", 208.); ("cos", 208.); ("exp", 208.);
    ("s3d_exp", 208.); ("scale", 625.); ("dot", 680.); ("add", 756.);
    ("delta", 1205.) ]

let alloc_tests =
  [
    Alcotest.test_case "a validation sample allocates a quarter of what it did"
      `Quick (fun () ->
        List.iter
          (fun (name, spec) ->
            let _, rewrite = Kernels.Registry.shipped_rewrite name spec in
            let e = Validate.Errfn.create spec ~rewrite in
            let n = 4_000 in
            let config =
              { Validate.Driver.default_config with
                Validate.Driver.max_proposals = n; min_samples = max_int;
                trace_points = 0; seed = 1L }
            in
            ignore (Validate.Driver.run ~config ~eta:Ulp.max_value e);
            let before = Gc.minor_words () in
            ignore (Validate.Driver.run ~config ~eta:Ulp.max_value e);
            let per_sample = (Gc.minor_words () -. before) /. float_of_int n in
            let bound = List.assoc name words_before /. 4. in
            if per_sample > bound then
              Alcotest.failf "%s: %.1f minor words per sample (bound %.0f)" name
                per_sample bound)
          Kernels.Registry.all);
  ]

let () =
  Alcotest.run "validate"
    [
      ("errfn", errfn_tests);
      ("install", install_tests);
      ("alloc", alloc_tests);
      ("proposal", proposal_tests);
      ("driver", driver_tests);
      ("regressions", regression_tests);
      ("refute", refute_tests);
      ("multi-chain", multi_chain_tests);
    ]

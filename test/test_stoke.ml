(* End-to-end tests of the Stoke facade: optimize, validate, verify,
   precision sweeps, and error curves — the paper's workflow in miniature. *)

let small_config proposals =
  { Search.Optimizer.default_config with Search.Optimizer.proposals }

let make_tests_tests =
  [
    Alcotest.test_case "default count" `Quick (fun () ->
        let tests = Stoke.make_tests ~seed:1L Kernels.S3d.exp_spec in
        Alcotest.(check int) "32 tests" 32 (Array.length tests));
    Alcotest.test_case "seeded determinism" `Quick (fun () ->
        let a = Stoke.make_tests ~n:4 ~seed:2L Kernels.S3d.exp_spec in
        let b = Stoke.make_tests ~n:4 ~seed:2L Kernels.S3d.exp_spec in
        Alcotest.(check bool) "equal" true (a = b));
  ]

let optimize_tests =
  [
    Alcotest.test_case "optimizing add finds a faster bitwise rewrite" `Slow
      (fun () ->
        let r =
          Stoke.optimize ~config:(small_config 60_000) ~eta:0L
            Kernels.Aek_kernels.add_spec
        in
        match r.Search.Optimizer.best_correct with
        | None -> Alcotest.fail "nothing found"
        | Some p ->
          Alcotest.(check bool)
            "faster" true
            (Latency.of_program p
            < Latency.of_program
                Kernels.Aek_kernels.add_spec.Sandbox.Spec.program));
    Alcotest.test_case "raising eta shortens exp" `Slow (fun () ->
        let strict =
          Stoke.optimize ~config:(small_config 40_000) ~eta:0L Kernels.S3d.exp_spec
        in
        let loose =
          Stoke.optimize ~config:(small_config 40_000) ~eta:(Ulp.of_float 1e14)
            Kernels.S3d.exp_spec
        in
        let loc r =
          match r.Search.Optimizer.best_correct with
          | None -> Program.length Kernels.S3d.exp_program
          | Some p -> Program.length p
        in
        Alcotest.(check bool)
          (Printf.sprintf "strict %d >= loose %d" (loc strict) (loc loose))
          true
          (loc strict >= loc loose));
  ]

let validate_verify_tests =
  [
    Alcotest.test_case "validate confirms the paper's delta rewrite" `Slow
      (fun () ->
        let config =
          {
            Validate.Driver.default_config with
            Validate.Driver.max_proposals = 60_000;
            min_samples = 10_000;
            check_every = 10_000;
          }
        in
        let v =
          Stoke.validate ~config ~eta:16L Kernels.Aek_kernels.delta_spec
            Kernels.Aek_kernels.delta_rewrite
        in
        Alcotest.(check bool)
          (Printf.sprintf "max err %s <= 16" (Ulp.to_string v.Validate.Driver.max_err))
          true
          (Ulp.compare v.Validate.Driver.max_err 16L <= 0));
    Alcotest.test_case "verify proves dot" `Quick (fun () ->
        match
          Stoke.verify ~eta:0L Kernels.Aek_kernels.dot_spec
            Kernels.Aek_kernels.dot_rewrite
        with
        | Verify.Verifier.Proved_bitwise -> ()
        | o -> Alcotest.failf "unexpected: %s" (Verify.Verifier.outcome_to_string o));
  ]

let sweep_tests =
  [
    Alcotest.test_case "sweep structure and monotonicity" `Slow (fun () ->
        let etas = [ 1L; Ulp.of_float 1e8; Ulp.of_float 1e16 ] in
        let points =
          (Stoke.frontier ~warm:false ~validate_results:false
             ~config:(small_config 25_000) ~etas ~tests:16 ~seed:3L
             Kernels.S3d.exp_spec)
            .Search.Frontier.points
        in
        Alcotest.(check int) "three points" 3 (List.length points);
        List.iter
          (fun (p : Search.Frontier.point) ->
            Alcotest.(check bool) "speedup >= 1" true (p.speedup >= 1.0);
            Alcotest.(check bool)
              "loc <= target" true
              (p.loc <= Program.length Kernels.S3d.exp_program))
          points;
        (* the largest-eta point should be no slower than the strictest *)
        let first = List.hd points in
        let last = List.nth points 2 in
        Alcotest.(check bool)
          "looser eta at least as fast" true
          (last.Search.Frontier.speedup >= first.Search.Frontier.speedup));
    Alcotest.test_case "default eta grid spans 1 to 1e18" `Quick (fun () ->
        Alcotest.(check int) "ten points" 10 (List.length Stoke.default_etas);
        Alcotest.(check int64) "first" 1L (List.hd Stoke.default_etas);
        Alcotest.(check bool)
          "last is 1e18" true
          (Ulp.compare (List.nth Stoke.default_etas 9) (Ulp.of_float 9e17) > 0));
  ]

let error_curve_tests =
  [
    Alcotest.test_case "zero curve for the target itself" `Quick (fun () ->
        let inputs = Array.init 32 (fun i -> -3. +. (float_of_int i /. 11.)) in
        let curve =
          Stoke.error_curve Kernels.S3d.exp_spec Kernels.S3d.exp_program ~inputs
        in
        Array.iter (fun u -> Alcotest.(check int64) "zero" 0L u) curve);
    Alcotest.test_case "arity restriction" `Quick (fun () ->
        Alcotest.(check bool)
          "raises" true
          (try
             ignore
               (Stoke.error_curve Kernels.Aek_kernels.dot_spec
                  Kernels.Aek_kernels.dot_rewrite ~inputs:[| 1. |]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "truncated exp curve grows away from zero" `Quick (fun () ->
        let instrs = Program.instrs Kernels.S3d.exp_program in
        let n = List.length instrs in
        let truncated =
          Program.of_instrs (List.filteri (fun i _ -> i < n - 9 || i >= n - 5) instrs)
        in
        let inputs = Array.init 61 (fun i -> -3. +. (float_of_int i /. 20.)) in
        let curve = Stoke.error_curve Kernels.S3d.exp_spec truncated ~inputs in
        let nonzero = Array.exists (fun u -> Ulp.compare u 0L > 0) curve in
        Alcotest.(check bool) "some error" true nonzero);
  ]

let refined_tests =
  [
    Alcotest.test_case "refinement accepts a bitwise rewrite directly" `Slow
      (fun () ->
        let r =
          Stoke.optimize_refined ~config:(small_config 40_000)
            ~validation:
              {
                Validate.Driver.default_config with
                Validate.Driver.max_proposals = 20_000;
                min_samples = 5_000;
                check_every = 5_000;
              }
            ~seed:41L ~eta:0L Kernels.Aek_kernels.add_spec
        in
        match r.Stoke.rewrite with
        | None -> Alcotest.fail "refinement returned nothing"
        | Some p ->
          (* whatever was accepted must truly be exact on fresh inputs *)
          let e = Validate.Errfn.create Kernels.Aek_kernels.add_spec ~rewrite:p in
          let g = Rng.Xoshiro256.create 42L in
          for _ = 1 to 500 do
            let xs = Sandbox.Spec.random_floats g Kernels.Aek_kernels.add_spec in
            if Ulp.compare (Validate.Errfn.eval_ulp e xs) 0L > 0 then
              Alcotest.fail "accepted rewrite is not exact"
          done);
    Alcotest.test_case "counterexamples tighten the test set" `Slow (fun () ->
        (* sin at a moderate eta: test-case-correct rewrites often have
           validation errors near the +-pi zeros, so refinement should
           either reject them (feeding back counterexamples) or accept a
           genuinely validated one. *)
        let r =
          Stoke.optimize_refined ~config:(small_config 25_000)
            ~validation:
              {
                Validate.Driver.default_config with
                Validate.Driver.max_proposals = 25_000;
                min_samples = 8_000;
                check_every = 8_000;
              }
            ~max_rounds:3 ~seed:43L ~eta:(Ulp.of_float 1e12)
            Kernels.Libimf.sin_spec
        in
        Alcotest.(check bool) "ran at least one round" true (r.Stoke.rounds >= 1);
        match r.Stoke.rewrite, r.Stoke.verdict with
        | Some _, Some v ->
          Alcotest.(check bool)
            "accepted rewrite is validated" true
            (Ulp.compare v.Validate.Driver.max_err (Ulp.of_float 1e12) <= 0)
        | Some _, None -> () (* target returned: trivially fine *)
        | None, _ ->
          Alcotest.(check bool)
            "rejection only after feedback" true
            (r.Stoke.counterexamples >= 1));
  ]

let frontier_tests =
  [
    Alcotest.test_case "sound promotion certifies points, cold run unchanged"
      `Slow (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let etas = [ 0L; Ulp.of_float 1e6 ] in
        let validation =
          {
            Validate.Driver.default_config with
            Validate.Driver.max_proposals = 10_000;
            min_samples = 2_000;
            check_every = 2_000;
          }
        in
        let run sound_promote =
          Stoke.frontier ~config:(small_config 20_000) ~validation ~etas
            ~tests:16 ~warm:false ~sound_promote ~seed:11L spec
        in
        let promoted = run true in
        (* add's rewrites verify bitwise, so the static prover must settle
           at least one point without spending MCMC validation budget *)
        Alcotest.(check bool)
          (Printf.sprintf "promotions %d >= 1"
             promoted.Search.Frontier.promotions)
          true
          (promoted.Search.Frontier.promotions >= 1);
        let plain = run false in
        Alcotest.(check int) "no promotions when disabled" 0
          plain.Search.Frontier.promotions;
        let plain' = run false in
        List.iter2
          (fun (a : Search.Frontier.point) (b : Search.Frontier.point) ->
            Alcotest.(check bool)
              "disabled runs are bit-identical" true
              (Program.equal a.Search.Frontier.rewrite
                 b.Search.Frontier.rewrite))
          plain.Search.Frontier.points plain'.Search.Frontier.points;
        (* the prover only changes how points are certified, not which
           rewrites win the searches *)
        List.iter2
          (fun (a : Search.Frontier.point) (b : Search.Frontier.point) ->
            Alcotest.(check bool)
              "same winners either way" true
              (Program.equal a.Search.Frontier.rewrite
                 b.Search.Frontier.rewrite))
          promoted.Search.Frontier.points plain.Search.Frontier.points);
  ]

let () =
  Alcotest.run "stoke"
    [
      ("make-tests", make_tests_tests);
      ("optimize", optimize_tests);
      ("validate-verify", validate_verify_tests);
      ("sweep", sweep_tests);
      ("error-curve", error_curve_tests);
      ("refined", refined_tests);
      ("frontier", frontier_tests);
    ]

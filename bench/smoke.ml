(* Equivalence smoke check: run the same fixed-seed search under every
   engine × pruning combination, assert the winners are bit-identical,
   and check how many test-case executions the cutoff + cache saved
   against pinned counts; then pin one fixed-seed validation verdict and
   the Taylor tier's two shipped verifications.
   Small enough to ride along in `dune runtest` as an end-to-end guard on
   both equivalence invariants — pruned vs. full, and compiled vs.
   interpreted. *)

(* The work counters of the pruned compiled search are deterministic, so
   they are gated exactly: a change that moves one changed the search's
   work, and must update these figures on purpose.  The screen's reject
   count and the winner's hash pin the undef-read screen's every
   decision and the cost-cache key's encoding. *)
type counts = {
  full_tests : int;  (** tests executed by the unpruned interp search *)
  tests : int;  (** tests executed by the pruned compiled search *)
  pruned : int;
  cache_hits : int;
  prepares : int;
  static_rejects : int;  (** proposals the undef-read screen rejected *)
  winner_hash : int64;  (** [Program.hash] of the best rewrite *)
}

let kernels =
  [
    ( "add",
      Kernels.Aek_kernels.add_spec,
      { full_tests = 31680; tests = 5012; pruned = 1396; cache_hits = 343;
        prepares = 1622; static_rejects = 823;
        winner_hash = 0x9cd70f86cf92551cL } );
    ( "scale",
      Kernels.Aek_kernels.scale_spec,
      { full_tests = 30736; tests = 5140; pruned = 1247; cache_hits = 398;
        prepares = 1490; static_rejects = 888;
        winner_hash = 0x8968924634a74b89L } );
  ]

let run_one name (spec : Sandbox.Spec.t) expected =
  let tests = Stoke.make_tests ~n:16 ~seed:7L spec in
  let params = Search.Cost.default_params ~eta:0L in
  let search engine prune =
    let ctx =
      Search.Cost.create ~use_cache:prune ~engine spec params tests
    in
    let config =
      { (Util.search_config ~proposals:3_000 ()) with
        Search.Optimizer.prune;
        engine }
    in
    Search.Optimizer.run ~obs:(Util.obs ()) ctx config
  in
  let full = search Sandbox.Exec.Interp false in
  let agrees (r : Search.Optimizer.result) =
    Program.equal r.Search.Optimizer.best_overall
      full.Search.Optimizer.best_overall
    && Int64.equal
         (Int64.bits_of_float
            r.Search.Optimizer.best_overall_cost.Search.Cost.total)
         (Int64.bits_of_float
            full.Search.Optimizer.best_overall_cost.Search.Cost.total)
    && r.Search.Optimizer.accepted = full.Search.Optimizer.accepted
    && (match
          r.Search.Optimizer.best_correct, full.Search.Optimizer.best_correct
        with
        | None, None -> true
        | Some p, Some q -> Program.equal p q
        | _ -> false)
  in
  let pruned = search Sandbox.Exec.Compiled true in
  let engines, unavailable =
    List.partition Sandbox.Engine.available Sandbox.Engine.all
  in
  List.iter
    (fun engine ->
      Printf.printf "%-8s %s engine unavailable here; skipped\n" name
        (Sandbox.Exec.engine_to_string engine))
    unavailable;
  List.iter
    (fun engine ->
      List.iter
        (fun prune ->
          let label =
            Sandbox.Exec.engine_to_string engine
            ^ if prune then "+prune" else ""
          in
          if not (agrees (search engine prune)) then begin
            Printf.eprintf "smoke: %s: %s search disagrees with interp/full!\n"
              name label;
            exit 1
          end)
        [ false; true ])
    engines;
  let got =
    {
      full_tests = full.Search.Optimizer.tests_executed;
      tests = pruned.Search.Optimizer.tests_executed;
      pruned = pruned.Search.Optimizer.pruned_evals;
      cache_hits = pruned.Search.Optimizer.cache_hits;
      prepares =
        pruned.Search.Optimizer.engine_counters.Sandbox.Engine.prepares;
      static_rejects = pruned.Search.Optimizer.static_rejects;
      winner_hash = Program.hash pruned.Search.Optimizer.best_overall;
    }
  in
  let describe c =
    Printf.sprintf
      "tests executed %8d -> %8d  (%.1f%% saved, %d pruned, %d cache hits, \
       %d prepares, %d screened out, winner %016Lx)"
      c.full_tests c.tests
      (100. *. (1. -. (float_of_int c.tests /. float_of_int c.full_tests)))
      c.pruned c.cache_hits c.prepares c.static_rejects c.winner_hash
  in
  Printf.printf "%-8s identical winners (%d engines x prune on/off); %s\n" name
    (List.length engines) (describe got);
  if got <> expected then begin
    Printf.eprintf "smoke: %s: work counters moved!\n  expected %s\n  got      %s\n"
      name (describe expected) (describe got);
    exit 1
  end

(* Frontier smoke: the cold frontier walk must reproduce the historical
   per-point sweep (inlined below) bit-identically,
   and a warm walk on the same grid must stay within the cold proposal
   budget while keeping its Pareto set free of dominated points. *)
let run_frontier () =
  let spec = Kernels.Aek_kernels.add_spec in
  let etas = [ 0L; Ulp.of_float 1e6; Ulp.of_float 1e12 ] in
  let seed = 11L in
  let config = Util.search_config ~proposals:3_000 ~seed () in
  let tests = Stoke.make_tests ~n:16 ~seed spec in
  let target = spec.Sandbox.Spec.program in
  let target_latency = Latency.of_program target in
  (* the pre-frontier sweep, inlined: one cold search per η, falling back
     to the target when nothing η-correct and no slower appears *)
  let legacy =
    List.map
      (fun eta ->
        let params = Search.Cost.default_params ~eta in
        let ctx =
          Search.Cost.create ~use_cache:config.Search.Optimizer.prune
            ~engine:config.Search.Optimizer.engine spec params tests
        in
        let r = Search.Optimizer.run ~obs:(Util.obs ()) ctx config in
        match r.Search.Optimizer.best_correct with
        | Some p when Latency.of_program p <= target_latency -> p
        | _ -> target)
      etas
  in
  let cold =
    Stoke.frontier ~warm:false ~config ~validate_results:false ~etas ~tests:16
      ~seed spec
  in
  List.iter2
    (fun expected (p : Search.Frontier.point) ->
      if not (Program.equal expected p.rewrite) then begin
        Printf.eprintf
          "smoke: cold frontier diverged from the legacy sweep at eta %s!\n"
          (Ulp.to_string p.eta);
        exit 1
      end)
    legacy cold.Search.Frontier.points;
  let fr =
    Stoke.frontier ~config ~validate_results:false ~etas ~tests:16 ~seed spec
  in
  if fr.Search.Frontier.total_proposals > fr.Search.Frontier.cold_budget then begin
    Printf.eprintf "smoke: warm frontier exceeded the cold budget!\n";
    exit 1
  end;
  let pareto = fr.Search.Frontier.pareto in
  List.iter
    (fun p ->
      if
        List.exists
          (fun q -> p != q && Search.Frontier.dominates q p)
          pareto
      then begin
        Printf.eprintf "smoke: frontier retained a dominated point!\n";
        exit 1
      end)
    pareto;
  Printf.printf
    "frontier cold walk == legacy sweep (3 etas, bit-identical); warm walk \
     spent %d of %d cold proposals (%.0f%%), pareto %d points, none dominated\n"
    fr.Search.Frontier.total_proposals fr.Search.Frontier.cold_budget
    (100.
    *. float_of_int fr.Search.Frontier.total_proposals
    /. float_of_int fr.Search.Frontier.cold_budget)
    (List.length pareto)

(* Validated frontier smoke: the frontier above runs without validation,
   so this warm walk is the one that drives the refuting validator
   ([Validate.Driver.run ~refute:true]).  On exp, seed 5, the η = 1e12
   candidate is refuted once and demoted before a survivor validates.
   Every point is deterministic, so each is gated exactly, and so are
   the refutations and the validation iterations the walk spent: a
   hunt that refuted later than the first new maximum above η would
   spend more. *)
type frontier_point = {
  latency : int;
  validated_err : string;
  proposals_used : int;
  demotions : int;
  hash : int64;  (** [Program.hash] of the point's rewrite *)
}

let expected_frontier =
  [
    { latency = 125; validated_err = "0"; proposals_used = 6000;
      demotions = 0; hash = 0x6f69211330e76698L };
    { latency = 125; validated_err = "0"; proposals_used = 1500;
      demotions = 0; hash = 0x6f69211330e76698L };
    { latency = 82; validated_err = "354530886012"; proposals_used = 3000;
      demotions = 1; hash = 0x5984f094b2d8b375L };
    { latency = 12; validated_err = "7595657003839621"; proposals_used = 1500;
      demotions = 0; hash = 0x95e9a126c6c8b265L };
  ]

(* refutations (validate_end with refuted:true), validation iterations *)
let expected_validation_work = (1, 80_000)

let run_validated_frontier () =
  let spec = Kernels.S3d.exp_spec in
  let etas =
    [ 0L; Ulp.of_float 1e6; Ulp.of_float 1e12; Ulp.of_float 1e16 ]
  in
  let seed = 5L in
  let config = Util.search_config ~proposals:6_000 ~seed () in
  let refutations = ref 0 and val_iterations = ref 0 in
  let counter =
    Obs.Sink.callback (fun e ->
        if e.Obs.Sink.name = "validate_end" then begin
          let field k = List.assoc_opt k e.Obs.Sink.fields in
          if field "refuted" = Some (Obs.Json.Bool true) then incr refutations;
          match field "iterations" with
          | Some (Obs.Json.Int n) -> val_iterations := !val_iterations + n
          | _ -> ()
        end)
  in
  let fr =
    Stoke.frontier ~config ~validate_results:true ~etas ~tests:16 ~seed
      ~obs:(Obs.Sink.tee counter (Util.obs ()))
      spec
  in
  let got =
    List.map
      (fun (p : Search.Frontier.point) ->
        {
          latency = p.Search.Frontier.latency;
          validated_err =
            (match p.Search.Frontier.validated_err with
             | None -> "none"
             | Some u -> Ulp.to_string u);
          proposals_used = p.Search.Frontier.proposals_used;
          demotions = p.Search.Frontier.demotions;
          hash = Program.hash p.Search.Frontier.rewrite;
        })
      fr.Search.Frontier.points
  in
  let describe ps =
    String.concat "\n"
      (List.map
         (fun p ->
           Printf.sprintf
             "  latency %3d, validated err %s, %d proposals, %d demotions, \
              rewrite %016Lx"
             p.latency p.validated_err p.proposals_used p.demotions p.hash)
         ps)
  in
  Printf.printf
    "validated warm frontier exp seed 5 (%d refutations, %d validation \
     iterations):\n%s\n"
    !refutations !val_iterations (describe got);
  if (!refutations, !val_iterations) <> expected_validation_work then begin
    Printf.eprintf
      "smoke: validated frontier work moved! expected %d refutations, %d \
       iterations\n"
      (fst expected_validation_work) (snd expected_validation_work);
    exit 1
  end;
  if got <> expected_frontier then begin
    Printf.eprintf
      "smoke: validated frontier moved!\n expected\n%s\n got\n%s\n"
      (describe expected_frontier) (describe got);
    exit 1
  end

(* Validation smoke: fixed-seed [Stoke.validate]s of two shipped rewrites
   under the perfbench check workload's budget (60k cap, a Geweke check
   every 10k samples from 10k on).  Each chain mixes only after several
   checks, so a verdict runs through the sandbox at one lane, the sample
   history and several Geweke checks; every field of it is deterministic,
   so it is gated exactly: [geweke_z] to the bit, and [evaluated], the
   inputs the hunt actually ran (a candidate that keeps the current point
   is not run).  delta keeps the point on about a quarter of its steps,
   sin about a third.  So are the minor words of a second, identical
   validation (dev profile figures, as for the search pins below): a hunt
   starts from the sample buffer the last one left, which after the
   frontier's validations depends on which domain finished last, and
   after the first run is already large enough.  A sample allocates
   nothing, so the words are the hunt's set-up and its Geweke checks. *)
type verdict = {
  iterations : int;
  mixed : bool;
  max_err : string;
  geweke_z : int64;  (** [Int64.bits_of_float] of the last Z *)
  checks : int;  (** Geweke checks run *)
  evaluated : int;  (** [validate_end]'s inputs run *)
}

let expected_validations =
  [
    ( "delta/delta_rewrite",
      Kernels.Aek_kernels.delta_spec,
      Kernels.Aek_kernels.delta_rewrite,
      3L,
      { iterations = 50_000; mixed = true; max_err = "2";
        geweke_z = Int64.bits_of_float (-0x1.c0e48bfd10874p-2); checks = 5;
        evaluated = 30_989 },
      3807 );
    ( "sin/sin_assoc",
      Kernels.Libimf.sin_spec,
      Kernels.Libimf.sin_assoc_rewrite,
      1L,
      { iterations = 30_000; mixed = true; max_err = "3308";
        geweke_z = 0xbf9e7b57698cdf8dL; checks = 3; evaluated = 19_031 },
      3898 );
  ]

let run_validation (name, spec, rewrite, seed, expected, expected_words) =
  let config =
    {
      Validate.Driver.default_config with
      Validate.Driver.max_proposals = 60_000;
      min_samples = 10_000;
      check_every = 10_000;
      seed;
    }
  in
  let checks = ref 0 and evaluated = ref 0 in
  let counter =
    Obs.Sink.callback (fun e ->
        match e.Obs.Sink.name with
        | "geweke" -> incr checks
        | "validate_end" ->
          evaluated :=
            Option.value ~default:(-1)
              (Option.bind (List.assoc_opt "evaluated" e.Obs.Sink.fields)
                 Obs.Json.to_int_opt)
        | _ -> ())
  in
  let validate obs = Stoke.validate ~config ~obs ~eta:Ulp.zero spec rewrite in
  let v = validate (Obs.Sink.tee counter (Util.obs ())) in
  let words0 = Gc.minor_words () in
  let again = validate Obs.Sink.null in
  let words = int_of_float (Gc.minor_words () -. words0) in
  if again.Validate.Driver.iterations <> v.Validate.Driver.iterations then begin
    Printf.eprintf "smoke: a second validation of %s ran %d iterations, not %d!\n"
      name again.Validate.Driver.iterations v.Validate.Driver.iterations;
    exit 1
  end;
  let got =
    {
      iterations = v.Validate.Driver.iterations;
      mixed = v.Validate.Driver.mixed;
      max_err = Ulp.to_string v.Validate.Driver.max_err;
      geweke_z = Int64.bits_of_float v.Validate.Driver.geweke_z;
      checks = !checks;
      evaluated = !evaluated;
    }
  in
  let describe c =
    Printf.sprintf
      "iterations %d (%d evaluated), mixed %b, max_err %s ulps, z %h (%d checks)"
      c.iterations c.evaluated c.mixed c.max_err (Int64.float_of_bits c.geweke_z)
      c.checks
  in
  Printf.printf "validate %s seed %Ld: %s\n" name seed (describe got);
  if got.checks < 3 then begin
    Printf.eprintf "smoke: validation of %s ran %d Geweke checks, need at least 3!\n"
      name got.checks;
    exit 1
  end;
  if got <> expected then begin
    Printf.eprintf "smoke: validation verdict of %s moved!\n  expected %s\n  got      %s\n"
      name (describe expected) (describe got);
    exit 1
  end;
  Printf.printf "validate %s seed %Ld: minor words %d (%.2f per iteration)\n" name seed
    words (float_of_int words /. float_of_int got.iterations);
  if words <> expected_words then begin
    Printf.eprintf "smoke: validation allocation of %s moved!\n  expected %d minor words, got %d\n"
      name expected_words words;
    exit 1
  end

(* The Taylor tier's two shipped pairs, verified as `stoke verify --all
   --bb-timeout 0` does (branch-and-bound budgeted by boxes, so every
   figure is deterministic).  The sound bound is gated to the bit, beside
   the boxes explored and the depth reached: a change to the order or the
   operands of one interval operation moves them, where the checked-in
   verify baseline allows 1% slack. *)
type verified = {
  tier : string;
  sound_bits : int64;  (** [Int64.bits_of_float] of the sound bound *)
  boxes : int;
  depth : int;
}

let expected_verified =
  [
    ( "sin",
      Kernels.Libimf.sin_spec,
      Kernels.Libimf.sin_assoc_rewrite,
      { tier = "taylor"; sound_bits = Int64.bits_of_float 0x1.f18472aa8fa83p-3;
        boxes = 1566; depth = 10 } );
    ( "delta",
      Kernels.Aek_kernels.delta_spec,
      Kernels.Aek_kernels.delta_rewrite,
      { tier = "taylor"; sound_bits = Int64.bits_of_float 0x1.bb8520f28f5ep+2;
        boxes = 2002; depth = 10 } );
  ]

let run_verify () =
  let taylor =
    { Verify.Bbound.default_config with Verify.Bbound.timeout_s = 0. }
  in
  List.iter
    (fun (name, spec, rewrite, expected) ->
      let outcome = Stoke.verify ~taylor ~eta:Ulp.zero spec rewrite in
      let boxes, depth =
        match outcome with
        | Verify.Verifier.Taylor_bound a ->
          (a.Verify.Taylor.boxes_explored, a.Verify.Taylor.depth)
        | _ -> (0, 0)
      in
      let got =
        {
          tier = Verify.Verifier.tier_name outcome;
          sound_bits =
            Int64.bits_of_float
              (Option.value ~default:Float.nan
                 (Verify.Verifier.sound_ulps outcome));
          boxes;
          depth;
        }
      in
      let describe v =
        Printf.sprintf "tier %s, sound %h ULPs, %d boxes, depth %d" v.tier
          (Int64.float_of_bits v.sound_bits) v.boxes v.depth
      in
      Printf.printf "verify %s: %s\n" name (describe got);
      if got <> expected then begin
        Printf.eprintf "smoke: verify %s moved!\n  expected %s\n  got      %s\n"
          name (describe expected) (describe got);
        exit 1
      end)
    expected_verified

(* Allocation smoke: for a fixed seed and build, the minor words a
   search allocates are as deterministic as its work counters, and are
   what the search loop's per-proposal costs show first, so they are
   gated exactly too: the words of one fixed-seed 5000-proposal
   [Stoke.optimize] per kernel on the compiled engine (the run's own
   words, from [Optimizer.result.minor_words]; set-up is not counted).
   The figures are those of the dev profile [dune runtest] builds. *)
let expected_minor_words = [ ("exp", 186901); ("sin", 180289) ]

let run_allocation () =
  let config =
    { Search.Optimizer.default_config with
      Search.Optimizer.proposals = 5_000; seed = 1L;
      engine = Sandbox.Exec.Compiled }
  in
  let got =
    List.map
      (fun (name, spec, eta) ->
        let r = Stoke.optimize ~config ~eta:(Ulp.of_float eta) spec in
        let words = int_of_float r.Search.Optimizer.minor_words in
        Printf.printf "%-8s minor words %d over %d proposals (%.2f per proposal)\n"
          name words r.Search.Optimizer.proposals_made
          (float_of_int words /. float_of_int r.Search.Optimizer.proposals_made);
        (name, words))
      [ ("exp", Kernels.S3d.exp_spec, 1e10); ("sin", Kernels.Libimf.sin_spec, 1e14) ]
  in
  if got <> expected_minor_words then begin
    Printf.eprintf "smoke: search allocation moved!\n";
    List.iter2
      (fun (name, want) (_, have) ->
        Printf.eprintf "  %s: expected %d minor words, got %d\n" name want have)
      expected_minor_words got;
    exit 1
  end

let run () =
  Util.heading
    "equivalence smoke check (bit-identical winners across engines and \
     pruning)";
  List.iter (fun (name, spec, expected) -> run_one name spec expected) kernels;
  run_frontier ();
  run_validated_frontier ();
  List.iter run_validation expected_validations;
  run_verify ();
  run_allocation ()

(* Tests are drawn uniformly from the input ranges, as STOKE draws its
   test cases from program runs.  Deliberately no oversampling of range
   corners: near output zeros (sin at ±π) the ULP error of any
   reduced-precision rewrite explodes, and the paper's own Figure 4(d)
   error curves show those spikes exceeding the generating η — a test-set
   artifact the validation phase is designed to expose. *)
let make_tests ?(n = 32) ~seed spec =
  let g = Rng.Xoshiro256.create seed in
  Array.init n (fun _ -> Sandbox.Spec.random_testcase g spec)

let optimize ?config ?tests ?obs ?progress_every ~eta spec =
  let config =
    match config with
    | Some c -> c
    | None -> Search.Optimizer.default_config
  in
  let tests =
    match tests with
    | Some t -> t
    | None -> make_tests ~seed:(Int64.add config.Search.Optimizer.seed 100L) spec
  in
  let params = Search.Cost.default_params ~eta in
  let ctx =
    Search.Cost.create ~use_cache:config.Search.Optimizer.prune
      ~engine:config.Search.Optimizer.engine spec params tests
  in
  Search.Optimizer.run ?obs ?progress_every ctx config

let optimize_parallel ?config ?tests ?domains ?obs ?orch_obs ?progress_every
    ?checkpoint ?resume ~eta spec =
  let config =
    match config with
    | Some c -> c
    | None -> Search.Optimizer.default_config
  in
  let tests =
    match tests with
    | Some t -> t
    | None -> make_tests ~seed:(Int64.add config.Search.Optimizer.seed 100L) spec
  in
  let params = Search.Cost.default_params ~eta in
  Search.Parallel.run ?domains ?obs ?orch_obs ?progress_every ?checkpoint
    ?resume ~spec ~params ~tests ~config ()

let validate ?config ?obs ?engine ~eta spec rewrite =
  let errfn = Validate.Errfn.create ?engine spec ~rewrite in
  Validate.Driver.run ?obs ?config ~eta errfn

let verify ?taylor ~eta spec rewrite =
  Verify.Verifier.check ?taylor spec ~rewrite ~eta

(* The frontier's injected prover (same downward-dependency pattern as the
   validators): a static proof that the rewrite is η-close promotes the
   point without any MCMC budget. *)
let static_prover ?taylor spec ~eta rewrite =
  let outcome = Verify.Verifier.check ?taylor spec ~rewrite ~eta in
  match Verify.Verifier.sound_ulps outcome with
  | Some s when Verify.Verifier.verified_within outcome eta ->
    let boxes, depth =
      match outcome with
      | Verify.Verifier.Taylor_bound a ->
        (a.Verify.Taylor.boxes_explored, a.Verify.Taylor.depth)
      | _ -> (0, 0)
    in
    Some { Search.Frontier.sound_ulps = s; boxes_explored = boxes; depth }
  | _ -> None

type refined = {
  rewrite : Program.t option;
  verdict : Validate.Driver.verdict option;
  rounds : int;
  counterexamples : int;
}

let optimize_refined ?config ?validation ?(max_rounds = 4) ?(tests = 32)
    ?(obs = Obs.Sink.null) ~seed ~eta spec =
  let config =
    match config with
    | Some c -> c
    | None -> Search.Optimizer.default_config
  in
  let validation =
    match validation with
    | Some v -> v
    | None ->
      {
        Validate.Driver.default_config with
        Validate.Driver.max_proposals = 100_000;
        min_samples = 20_000;
        check_every = 20_000;
      }
  in
  let test_list = ref (Array.to_list (make_tests ~n:tests ~seed spec)) in
  let counterexamples = ref 0 in
  let rec go round =
    if Obs.Sink.enabled obs then
      Obs.Sink.emit obs "refine_round"
        [
          ("round", Obs.Json.Int round);
          ("tests", Obs.Json.Int (List.length !test_list));
        ];
    let result =
      optimize ~obs ~tests:(Array.of_list !test_list) ~eta spec
        ~config:
          {
            config with
            Search.Optimizer.seed =
              Int64.add config.Search.Optimizer.seed (Int64.of_int round);
          }
    in
    match result.Search.Optimizer.best_correct with
    | None -> { rewrite = None; verdict = None; rounds = round; counterexamples = !counterexamples }
    | Some rewrite ->
      if Program.equal rewrite spec.Sandbox.Spec.program then
        (* nothing better than the target: trivially valid *)
        { rewrite = Some rewrite; verdict = None; rounds = round;
          counterexamples = !counterexamples }
      else begin
        (* validate on the same engine the search ran on *)
        let errfn =
          Validate.Errfn.create ~engine:config.Search.Optimizer.engine spec
            ~rewrite
        in
        let v = Validate.Driver.run ~obs ~config:validation ~eta errfn in
        if Ulp.compare v.Validate.Driver.max_err eta <= 0 then
          { rewrite = Some rewrite; verdict = Some v; rounds = round;
            counterexamples = !counterexamples }
        else if round >= max_rounds then
          { rewrite = None; verdict = Some v; rounds = round;
            counterexamples = !counterexamples }
        else begin
          (* feed the counterexample back into the fast check's test set *)
          incr counterexamples;
          if Obs.Sink.enabled obs then
            Obs.Sink.emit obs "counterexample"
              [
                ("round", Obs.Json.Int round);
                ( "err_ulps",
                  Obs.Json.Float (Ulp.to_float v.Validate.Driver.max_err) );
                ( "input",
                  Obs.Json.List
                    (Array.to_list
                       (Array.map
                          (fun x -> Obs.Json.Float x)
                          v.Validate.Driver.max_err_input)) );
              ];
          test_list :=
            Sandbox.Spec.testcase_of_floats spec v.Validate.Driver.max_err_input
            :: !test_list;
          go (round + 1)
        end
      end
  in
  go 1

let default_etas =
  List.init 10 (fun i -> Ulp.of_float (Float.pow 10. (float_of_int (2 * i))))

let quick_validation_config =
  {
    Validate.Driver.default_config with
    Validate.Driver.max_proposals = 200_000;
    min_samples = 20_000;
    check_every = 20_000;
  }

(* The frontier's validator reduces a Driver verdict to the
   injected-check record the search-side driver understands (lib/search
   cannot call lib/validate itself — dependencies point strictly
   downward).  [refute] stops the hunt the moment a candidate's error
   clears η, so the warm walk's demoted candidates return their budget
   to search instead of waiting for the chain to mix; the cold walk runs
   the full hunt. *)
let validator ?engine ~obs ~validation ~refute spec ~eta rewrite =
  let errfn = Validate.Errfn.create ?engine spec ~rewrite in
  let v = Validate.Driver.run ~obs ~config:validation ~refute ~eta errfn in
  let refuted = Ulp.compare v.Validate.Driver.max_err eta > 0 in
  {
    Search.Frontier.observed_err = v.Validate.Driver.max_err;
    refuted;
    mixed = v.Validate.Driver.mixed;
    val_iterations = v.Validate.Driver.iterations;
    counterexample =
      (if refuted then Some v.Validate.Driver.max_err_input else None);
  }

let frontier ?config ?validation ?(validate_results = true) ?etas
    ?(tests = 32) ?(warm = true) ?(warm_frac = 0.25) ?(max_demotions = 2)
    ?(sound_promote = false) ?taylor
    ?(obs = Obs.Sink.null) ?checkpoint ?resume ~seed spec =
  let etas =
    match etas with
    | Some e -> e
    | None -> default_etas
  in
  let config =
    match config with
    | Some c -> c
    | None -> Search.Optimizer.default_config
  in
  let validation =
    match validation with
    | Some v -> v
    | None -> quick_validation_config
  in
  let test_array = make_tests ~n:tests ~seed spec in
  let engine = config.Search.Optimizer.engine in
  let validator =
    if validate_results then
      Some
        (fun ~eta rewrite ->
          validator ~engine ~obs ~validation ~refute:warm spec ~eta rewrite)
    else None
  in
  let prover =
    if sound_promote then
      Some (fun ~eta rewrite -> static_prover ?taylor spec ~eta rewrite)
    else None
  in
  let fcfg =
    { Search.Frontier.search = config; warm; warm_frac; max_demotions }
  in
  Search.Frontier.run ~obs ?validator ?prover ?checkpoint ?resume
    ~tests:test_array ~etas fcfg spec

let error_curve spec rewrite ~inputs =
  if Sandbox.Spec.arity spec <> 1 then
    invalid_arg "Stoke.error_curve: spec must take exactly one float input";
  let errfn = Validate.Errfn.create spec ~rewrite in
  Array.map (fun x -> Validate.Errfn.eval_ulp errfn [| x |]) inputs

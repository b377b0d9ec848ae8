(* stoke — command-line driver for the STOKE-FP reproduction.

   Subcommands: list, show, optimize, refine, validate, verify, frontier,
   serve, submit, encode, disasm, lint, raytrace, diffusion. *)

open Cmdliner

(* ----- the common front end: kernel, η, budgets, search config ----- *)

let kernel_conv =
  Arg.conv'
    ( (fun name ->
        Result.map (fun spec -> (name, spec)) (Kernels.Registry.find name)),
      fun ppf (name, _) -> Format.pp_print_string ppf name )

let kernel_arg =
  let doc = "Kernel name (see $(b,stoke list))." in
  Arg.(required & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL" ~doc)

(* η stays a float on the command line ([submit] sends it as given);
   [Ulp.eta_of_float] decides which floats are budgets *)
let parse_eta s =
  match float_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "%S is not a number" s)
  | Some f -> Result.map (fun _ -> f) (Ulp.eta_of_float f)

let eta_conv = Arg.conv' (parse_eta, fun ppf f -> Format.fprintf ppf "%g" f)

(* a grid; unlike [Arg.list], an empty element is an error, not skipped *)
let etas_conv =
  Arg.conv'
    ( (fun s ->
        List.fold_right
          (fun tok fs ->
            Result.bind (parse_eta tok) (fun f -> Result.map (List.cons f) fs))
          (String.split_on_char ',' s) (Ok [])),
      Format.(
        pp_print_list
          ~pp_sep:(fun ppf () -> pp_print_char ppf ',')
          (fun ppf -> fprintf ppf "%g")) )

let int_at_least lo =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo -> Ok n
        | _ -> Error (Printf.sprintf "%S is not an integer >= %d" s lo)),
      Format.pp_print_int )

let eta_arg =
  let doc = "Precision budget η in ULPs (e.g. 1e6)." in
  Arg.(value & opt eta_conv 0. & info [ "eta" ] ~docv:"ULPS" ~doc)

let proposals_arg =
  let doc = "Search proposal budget." in
  Arg.(
    value & opt (int_at_least 0) 200_000 & info [ "proposals" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let engine_arg =
  (* derived from [Exec.engine_names] so the CLI can never drift from the
     library's spellings *)
  let engines =
    List.map
      (fun n ->
        match Sandbox.Exec.engine_of_string n with
        | Ok e -> (n, e)
        | Error e -> failwith e)
      Sandbox.Exec.engine_names
  in
  let doc =
    "Execution engine: $(b,compiled) (default) translates each proposal once \
     into specialized closures and replays them per test case; \
     $(b,batched) translates once and steps every test case lane-wise \
     through each instruction (struct-of-arrays register files, one reset \
     per proposal, whole-proposal cutoff aborts); $(b,native) encodes each \
     proposal to real machine code and runs all lanes inside a guarded \
     worker process, falling back per-proposal to batched for instructions \
     hardware does not execute bit-identically (and entirely where \
     mmap-exec is denied); $(b,interp) steps the reference interpreter on \
     every run.  Results are bit-identical for a fixed seed; interp exists \
     as the oracle and for debugging."
  in
  Arg.(
    value
    & opt (enum engines) Sandbox.Exec.Compiled
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* --proposals, --seed and --engine as one search configuration *)
let search_arg =
  let make proposals seed engine =
    {
      Search.Optimizer.default_config with
      Search.Optimizer.proposals;
      seed = Int64.of_int seed;
      engine;
    }
  in
  Term.(const make $ proposals_arg $ seed_arg $ engine_arg)

let rewrite_file_arg =
  let doc = "Assembly file holding a rewrite (defaults to the target)." in
  Arg.(value & opt (some file) None & info [ "rewrite" ] ~docv:"FILE" ~doc)

let read_program path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Parser.parse_program_exn s

let exit_err msg =
  Printf.eprintf "stoke: %s\n" msg;
  exit 1

(* ----- telemetry options (see docs/TELEMETRY.md) ----- *)

let trace_out_arg =
  let doc =
    "Write the JSONL telemetry stream (one event per line) to $(docv); with \
     --domains N, chain $(i,i) writes $(docv).chain$(i,i) instead."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print a final metrics summary as one JSON object on stderr." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let progress_arg =
  let doc =
    "Print a progress line to stderr every $(docv) search proposals (during \
     validation: at every Geweke check and new maximum)."
  in
  Arg.(value & opt (some int) None & info [ "progress" ] ~docv:"N" ~doc)

let field ev key = List.assoc_opt key ev.Obs.Sink.fields
let field_int ev key = Option.bind (field ev key) Obs.Json.to_int_opt
let field_float ev key = Option.bind (field ev key) Obs.Json.to_float_opt
let iget ev key = Option.value ~default:0 (field_int ev key)
let fget ev key = Option.value ~default:0. (field_float ev key)

let progress_printer ev =
  match ev.Obs.Sink.name with
  | "progress" ->
    Printf.eprintf
      "progress: chain %d iter %d  best %.1f  current %.1f  accepted %d  %.0f evals/s\n%!"
      (iget ev "chain") (iget ev "iter") (fget ev "best_total")
      (fget ev "current_total") (iget ev "accepted") (fget ev "evals_per_s")
  | "geweke" ->
    Printf.eprintf "progress: iter %d  Geweke Z %.3f  (%d samples)\n%!"
      (iget ev "iter") (fget ev "z") (iget ev "n_samples")
  | "val_new_max" ->
    Printf.eprintf "progress: iter %d  new max error %.3e ULPs\n%!"
      (iget ev "iter") (fget ev "err_ulps")
  | _ -> ()

(* A sink combining --trace-out (JSONL file) and --progress (stderr). *)
let make_sink ~trace_out ~progress =
  let file =
    match trace_out with
    | None -> Obs.Sink.null
    | Some path -> (
      try Obs.Sink.to_file path
      with Sys_error e -> exit_err (Printf.sprintf "--trace-out: %s" e))
  in
  let printer =
    match progress with
    | None -> Obs.Sink.null
    | Some _ -> Obs.Sink.callback progress_printer
  in
  Obs.Sink.tee file printer

let with_sink ~trace_out ~progress f =
  let sink = make_sink ~trace_out ~progress in
  Fun.protect ~finally:(fun () -> Obs.Sink.close sink) (fun () -> f sink)

let sandbox_counters_json () =
  let c = Sandbox.Exec.Counters.snapshot () in
  Obs.Json.Obj
    [
      ("runs", Obs.Json.Int c.Sandbox.Exec.Counters.runs);
      ("instrs", Obs.Json.Int c.Sandbox.Exec.Counters.instrs);
      ("cycles", Obs.Json.Int c.Sandbox.Exec.Counters.cycles);
      ("faults", Obs.Json.Int c.Sandbox.Exec.Counters.faults);
    ]

let print_metrics fields = prerr_endline (Obs.Json.to_string (Obs.Json.Obj fields))

(* ----- list ----- *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, spec) ->
        let p = spec.Sandbox.Spec.program in
        Printf.printf "%-8s %3d LOC  %4d cycles  arity %d\n" name
          (Program.length p) (Latency.of_program p) (Sandbox.Spec.arity spec))
      Kernels.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark kernels")
    Term.(const run $ const ())

(* ----- show ----- *)

let show_cmd =
  let run (name, spec) =
    let p = spec.Sandbox.Spec.program in
    Printf.printf "# %s: %d LOC, %d cycles (static latency model)\n" name
      (Program.length p) (Latency.of_program p);
    print_endline (Program.to_string p)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a kernel's target assembly")
    Term.(const run $ kernel_arg)

(* ----- optimize ----- *)

let optimize_cmd =
  let run (name, spec) eta config domains no_prune no_static_screen out
      trace_out metrics progress deadline stop_when checkpoint checkpoint_every
      resume =
    let stop_when =
      match Search.Control.stop_policy_of_string stop_when with
      | Some p -> p
      | None ->
        exit_err
          (Printf.sprintf
             "--stop-when: unknown policy %S (try exhaust, first-correct, \
              or cost-below:<float>)"
             stop_when)
    in
    let snapshot =
      Option.map
        (fun path ->
          match Search.Snapshot.read ~path with
          | Ok s -> s
          | Error e -> exit_err (Printf.sprintf "--resume: %s" e))
        resume
    in
    (* --resume restores the snapshot's domain count unless --domains
       explicitly overrides it (which the fingerprint check will then
       reject loudly — the chain layout is part of the trajectory). *)
    let domains =
      match domains, snapshot with
      | Some d, _ -> d
      | None, Some s -> s.Search.Snapshot.domains
      | None, None -> 1
    in
    let config =
      {
        config with
        Search.Optimizer.prune = not no_prune;
        static_screen = not no_static_screen;
        stop_when;
        deadline_s = deadline;
      }
    in
    let eta = Ulp.of_float eta in
    if metrics then Sandbox.Exec.Counters.enable ();
    let t0 = Obs.Clock.now_ns () in
    let orchestrated =
      domains > 1 || Option.is_some checkpoint || Option.is_some snapshot
    in
    let result =
      if not orchestrated then
        with_sink ~trace_out ~progress (fun obs ->
            Stoke.optimize ~config ~obs ?progress_every:progress ~eta spec)
      else
        (* one sink per chain, created inside its domain; the stderr
           progress printer is shared (it only writes a line) *)
        let obs ~chain =
          make_sink
            ~trace_out:
              (Option.map
                 (fun path -> Printf.sprintf "%s.chain%d" path chain)
                 trace_out)
            ~progress
        in
        with_sink ~trace_out ~progress (fun orch_obs ->
            try
              Stoke.optimize_parallel ~config ~domains ~obs ~orch_obs
                ?progress_every:progress
                ?checkpoint:
                  (Option.map (fun p -> (p, checkpoint_every)) checkpoint)
                ?resume:snapshot ~eta spec
            with Invalid_argument msg -> exit_err msg)
    in
    if metrics then
      print_metrics
        [
          ("command", Obs.Json.String "optimize");
          ("kernel", Obs.Json.String name);
          ("domains", Obs.Json.Int (Stdlib.max 1 domains));
          ( "stop_reason",
            Obs.Json.String
              (Search.Control.stop_reason_to_string
                 result.Search.Optimizer.stop_reason) );
          ( "failed_chains",
            Obs.Json.Int result.Search.Optimizer.failed_chains );
          ("proposals_made", Obs.Json.Int result.Search.Optimizer.proposals_made);
          ("accepted", Obs.Json.Int result.Search.Optimizer.accepted);
          ("evaluations", Obs.Json.Int result.Search.Optimizer.evaluations);
          ( "tests_executed",
            Obs.Json.Int result.Search.Optimizer.tests_executed );
          ("pruned_evals", Obs.Json.Int result.Search.Optimizer.pruned_evals);
          ("cache_hits", Obs.Json.Int result.Search.Optimizer.cache_hits);
          ( "engine",
            Search.Optimizer.engine_json config.Search.Optimizer.engine
              result.Search.Optimizer.engine_counters );
          ( "static_rejects",
            Obs.Json.Int result.Search.Optimizer.static_rejects );
          ("elapsed_s", Obs.Json.Float (Obs.Clock.elapsed_s ~since:t0));
          ("moves", Search.Optimizer.moves_json result.Search.Optimizer.moves);
          ("sandbox", sandbox_counters_json ());
        ];
    let target = spec.Sandbox.Spec.program in
    match result.Search.Optimizer.best_correct with
    | None -> print_endline "no η-correct rewrite found"
    | Some p ->
      Printf.printf
        "# target %d LOC / %d cycles -> rewrite %d LOC / %d cycles (%.2fx)\n"
        (Program.length target) (Latency.of_program target)
        (Program.length p) (Latency.of_program p)
        (float_of_int (Latency.of_program target)
        /. float_of_int (max 1 (Latency.of_program p)));
      let text = Program.to_string p in
      (match out with
       | None -> print_endline text
       | Some path ->
         let oc = open_out path in
         output_string oc (text ^ "\n");
         close_out oc;
         Printf.printf "# written to %s\n" path)
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let domains_arg =
    Arg.(
      value & opt (some (int_at_least 1)) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run N independent parallel search chains (OCaml domains).  \
             Defaults to 1, or to the snapshot's domain count with \
             $(b,--resume).")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget for the whole search.  Chains notice the \
             deadline at their next control poll and exit with their \
             partial-but-valid best; combine with --checkpoint to resume \
             later.")
  in
  let stop_when_arg =
    Arg.(
      value & opt string "exhaust"
      & info [ "stop-when" ] ~docv:"POLICY"
          ~doc:
            "Cooperative early-stop policy: $(b,exhaust) (run the full \
             budget), $(b,first-correct) (stop all chains once any chain \
             finds an η-correct rewrite faster than the target), or \
             $(b,cost-below:C) (stop once any chain's best total cost \
             drops below C).")
  in
  let checkpoint_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a resumable search snapshot to $(docv) (atomically) \
             every --checkpoint-every seconds and when the run ends.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt float 60.
      & info [ "checkpoint-every" ] ~docv:"SECS"
          ~doc:"Snapshot cadence for --checkpoint (default 60).")
  in
  let resume_arg =
    Arg.(
      value & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Continue a previous run from a --checkpoint snapshot.  The \
             kernel, seed, proposal budget, and search options must match \
             the original run (checked by fingerprint); stopping options \
             (--deadline, --stop-when, checkpoint cadence) may change.")
  in
  let no_prune_arg =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable early-termination cost evaluation and the proposal cost \
             cache: run every test case to completion on every proposal.  \
             The winning rewrite is bit-identical either way for a fixed \
             seed; this escape hatch exists to measure the saving (compare \
             the tests_executed counter with --metrics) and to rule pruning \
             out when debugging.")
  in
  let no_static_screen_arg =
    Arg.(
      value & flag
      & info [ "no-static-screen" ]
          ~doc:
            "Disable the static undef-read screen: evaluate every proposal \
             on test cases even when dataflow analysis proves it reads a \
             location nothing defined.  Screened and unscreened searches \
             follow different random streams (the screen skips the \
             acceptance draw for rejected proposals), so fixed-seed winners \
             differ; both still find η-correct rewrites.  Compare the \
             static_rejects counter with --metrics.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Search for a faster η-correct rewrite")
    Term.(
      const run $ kernel_arg $ eta_arg $ search_arg $ domains_arg
      $ no_prune_arg $ no_static_screen_arg $ out_arg
      $ trace_out_arg $ metrics_arg $ progress_arg $ deadline_arg
      $ stop_when_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg)

(* ----- refine ----- *)

let refine_cmd =
  let run (_, spec) eta config trace_out progress =
    let r =
      with_sink ~trace_out ~progress (fun obs ->
          Stoke.optimize_refined ~config ~obs
            ~seed:config.Search.Optimizer.seed ~eta:(Ulp.of_float eta) spec)
    in
    Printf.printf "rounds: %d, counterexamples fed back: %d\n" r.Stoke.rounds
      r.Stoke.counterexamples;
    (match r.Stoke.rewrite with
     | None -> print_endline "no validated rewrite survived refinement"
     | Some p ->
       Printf.printf "# validated rewrite: %d LOC / %d cycles (target %d/%d)\n"
         (Program.length p) (Latency.of_program p)
         (Program.length spec.Sandbox.Spec.program)
         (Latency.of_program spec.Sandbox.Spec.program);
       print_endline (Program.to_string p));
    match r.Stoke.verdict with
    | None -> ()
    | Some v ->
      Printf.printf "# validation: max error %s ULPs, mixed %b\n"
        (Ulp.to_string v.Validate.Driver.max_err)
        v.Validate.Driver.mixed
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Counterexample-refined optimization: search, validate, feed failures \
          back into the test set, repeat")
    Term.(
      const run $ kernel_arg $ eta_arg $ search_arg $ trace_out_arg
      $ progress_arg)

(* ----- validate ----- *)

let validate_cmd =
  let run (_, spec) eta rewrite_file proposals min_samples chains engine
      trace_out progress =
    let rewrite =
      match rewrite_file with
      | None -> spec.Sandbox.Spec.program
      | Some path -> read_program path
    in
    let eta = Ulp.of_float eta in
    with_sink ~trace_out ~progress @@ fun obs ->
    if chains = 1 then begin
      let config =
        {
          Validate.Driver.default_config with
          Validate.Driver.max_proposals = proposals;
          min_samples;
        }
      in
      let v = Stoke.validate ~config ~obs ~engine ~eta spec rewrite in
      Printf.printf
        "max observed error: %s ULPs (at input %s)\nmixed: %b (Geweke Z = %.3f after %d iterations)\nvalidated within η: %b\n"
        (Ulp.to_string v.Validate.Driver.max_err)
        (String.concat ", "
           (Array.to_list
              (Array.map (Printf.sprintf "%g") v.Validate.Driver.max_err_input)))
        v.Validate.Driver.mixed v.Validate.Driver.geweke_z
        v.Validate.Driver.iterations v.Validate.Driver.validated
    end
    else begin
      let config =
        {
          Validate.Multi_chain.default_config with
          Validate.Multi_chain.chains;
          proposals_per_chain = proposals / chains;
        }
      in
      let errfn = Validate.Errfn.create ~engine spec ~rewrite in
      let v =
        match Validate.Multi_chain.run ~obs ~config ~eta errfn with
        | v -> v
        | exception Invalid_argument msg ->
          exit_err
            (Printf.sprintf "--proposals %d over %d chains: %s" proposals
               chains msg)
      in
      Printf.printf
        "max observed error: %s ULPs across %d chains (per-chain: %s)\nmixed: %b (Gelman-Rubin R-hat = %.4f)\nvalidated within η: %b\n"
        (Ulp.to_string v.Validate.Multi_chain.max_err)
        chains
        (String.concat ", "
           (Array.to_list (Array.map Ulp.to_string v.Validate.Multi_chain.per_chain_max)))
        v.Validate.Multi_chain.mixed v.Validate.Multi_chain.r_hat
        v.Validate.Multi_chain.validated
    end
  in
  let chains_arg =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "chains" ] ~docv:"N"
          ~doc:
            "Run N independent validation chains and judge mixing with the \
             Gelman-Rubin R-hat instead of the single-chain Geweke test.  \
             The chains split --proposals evenly and each needs at least 4.")
  in
  let min_samples_arg =
    Arg.(
      value & opt int Validate.Driver.default_config.Validate.Driver.min_samples
      & info [ "min-samples" ] ~docv:"N"
          ~doc:
            "Minimum number of error samples before any mixing check (Geweke) \
             may run; a budget that ends below the floor reports mixed=false \
             rather than judging an undersized chain.  Single-chain mode only.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"MCMC-validate a rewrite's maximum ULP error against the target")
    Term.(
      const run $ kernel_arg $ eta_arg $ rewrite_file_arg $ proposals_arg
      $ min_samples_arg $ chains_arg $ engine_arg $ trace_out_arg
      $ progress_arg)

(* ----- verify ----- *)

type verify_row = {
  vr_kernel : string;
  vr_rewrite : string;
  vr_bitwise : string;  (* yes / no / abort *)
  vr_tier : string;  (* bitwise / taylor / interval / - *)
  vr_sound : float option;
  vr_observed : float option;
  vr_outcome : Verify.Verifier.outcome;
}

let tier_rank = function
  | "bitwise" -> 3
  | "taylor" -> 2
  | "interval" -> 1
  | _ -> 0

(* Largest absolute output difference between target and rewrite on one
   input vector (infinite when either program faults). *)
let abs_error_at spec rewrite xs =
  let tc = Sandbox.Spec.testcase_of_floats spec xs in
  let run p =
    let m, r =
      Sandbox.Exec.run_testcase ~mem_size:spec.Sandbox.Spec.mem_size p tc
    in
    match r.Sandbox.Exec.outcome with
    | Sandbox.Exec.Finished -> Some (Sandbox.Spec.read_outputs spec m)
    | Sandbox.Exec.Faulted _ -> None
  in
  match (run spec.Sandbox.Spec.program, run rewrite) with
  | Some vt, Some vr ->
    let worst = ref 0. in
    Array.iter2
      (fun a b ->
        match (a, b) with
        | Sandbox.Spec.Vf64 x, Sandbox.Spec.Vf64 y
        | Sandbox.Spec.Vf32 x, Sandbox.Spec.Vf32 y ->
          worst := Float.max !worst (Float.abs (x -. y))
        | _ -> worst := Float.infinity)
      vt vr;
    !worst
  | _ -> Float.infinity

(* The analysis divides absolute error by the ULP size at the target's
   output magnitude; the observed column must use the same unit or the
   two are incomparable (bit-distance ULPs explode near zeros). *)
let scaled_ulp_unit spec outcome =
  let range =
    match outcome with
    | Verify.Verifier.Taylor_bound a -> Some a.Verify.Taylor.target_range
    | Verify.Verifier.Static_bound a -> Some a.Verify.Interval.target_range
    | _ -> None
  in
  match range with
  | None -> None
  | Some r ->
    let single =
      List.exists
        (fun o -> Verify.Symbolic.output_prec o = Verify.Symbolic.P32)
        spec.Sandbox.Spec.outputs
    in
    Some (Verify.Interval.ulp_size_at (Verify.Interval.mag r) ~single)

let verify_one ~taylor ~eta ~observed ~engine ~kname spec rewrite_label rewrite
    =
  let outcome = Stoke.verify ~taylor ~eta spec rewrite in
  let bitwise =
    match outcome with
    | Verify.Verifier.Proved_bitwise -> "yes"
    | Verify.Verifier.Not_verifiable _ -> "abort"
    | _ -> "no"
  in
  let observed_ulps =
    if not observed then None
    else if Program.equal rewrite spec.Sandbox.Spec.program then Some 0.
    else begin
      let config =
        {
          Validate.Driver.default_config with
          Validate.Driver.max_proposals = 50_000;
          min_samples = 10_000;
          check_every = 10_000;
        }
      in
      (* the MCMC hunt finds the adversarial input; the error is then
         re-measured in the analysis's scaled-ULP currency *)
      let v = Stoke.validate ~config ~engine ~eta spec rewrite in
      match scaled_ulp_unit spec outcome with
      | None -> Some (Ulp.to_float v.Validate.Driver.max_err)
      | Some unit_size ->
        let worst = ref (abs_error_at spec rewrite v.Validate.Driver.max_err_input) in
        let g = Rng.Xoshiro256.create 1L in
        for _ = 1 to 2_000 do
          let xs = Sandbox.Spec.random_floats g spec in
          worst := Float.max !worst (abs_error_at spec rewrite xs)
        done;
        Some (!worst /. unit_size)
    end
  in
  {
    vr_kernel = kname;
    vr_rewrite = rewrite_label;
    vr_bitwise = bitwise;
    vr_tier = Verify.Verifier.tier_name outcome;
    vr_sound = Verify.Verifier.sound_ulps outcome;
    vr_observed = observed_ulps;
    vr_outcome = outcome;
  }

let verify_row_json r =
  Obs.Json.Obj
    [
      ("kernel", Obs.Json.String r.vr_kernel);
      ("rewrite", Obs.Json.String r.vr_rewrite);
      ("bitwise", Obs.Json.String r.vr_bitwise);
      ("tier", Obs.Json.String r.vr_tier);
      ( "sound_ulps",
        match r.vr_sound with
        | None -> Obs.Json.Null
        | Some s -> Obs.Json.Float s );
      ( "observed_ulps",
        match r.vr_observed with
        | None -> Obs.Json.Null
        | Some o -> Obs.Json.Float o );
    ]

let print_verify_table rows =
  Printf.printf "%-10s %-16s %-7s %-9s %13s %13s\n" "kernel" "rewrite"
    "bitwise" "tier" "sound-ulps" "observed-ulps";
  List.iter
    (fun r ->
      Printf.printf "%-10s %-16s %-7s %-9s %13s %13s\n" r.vr_kernel
        r.vr_rewrite r.vr_bitwise r.vr_tier
        (match r.vr_sound with
         | None -> "-"
         | Some s -> Printf.sprintf "%.3g" s)
        (match r.vr_observed with
         | None -> "-"
         | Some o -> Printf.sprintf "%.3g" o))
    rows

(* Baseline regression check: every baseline row must still verify at no
   weaker a tier and no looser a sound bound (1% slack for float noise;
   run with --bb-timeout 0 so branch-and-bound effort is deterministic). *)
let check_against_baseline rows path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let json =
    match Obs.Json.of_string text with
    | Ok j -> j
    | Error e -> exit_err (Printf.sprintf "%s: %s" path e)
  in
  let baseline_rows =
    match Obs.Json.member "rows" json with
    | Some (Obs.Json.List l) -> l
    | _ -> exit_err (Printf.sprintf "%s: missing \"rows\" list" path)
  in
  let str key j =
    match Obs.Json.member key j with
    | Some (Obs.Json.String s) -> s
    | _ -> exit_err (Printf.sprintf "%s: row missing %S" path key)
  in
  let regressions = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt in
  List.iter
    (fun b ->
      let kernel = str "kernel" b and rewrite = str "rewrite" b in
      let id = Printf.sprintf "%s/%s" kernel rewrite in
      match
        List.find_opt
          (fun r -> r.vr_kernel = kernel && r.vr_rewrite = rewrite)
          rows
      with
      | None -> flag "%s: pair missing from this run" id
      | Some r ->
        let b_tier = str "tier" b in
        if tier_rank r.vr_tier < tier_rank b_tier then
          flag "%s: tier weakened %s -> %s" id b_tier r.vr_tier;
        (match Option.bind (Obs.Json.member "sound_ulps" b) Obs.Json.to_float_opt,
               r.vr_sound with
         | Some b_sound, Some sound ->
           if sound > (b_sound *. 1.01) +. 1e-9 then
             flag "%s: sound bound loosened %.6g -> %.6g ULPs" id b_sound sound
         | Some b_sound, None ->
           flag "%s: sound bound %.6g ULPs lost" id b_sound
         | None, _ -> ()))
    baseline_rows;
  match !regressions with
  | [] ->
    Printf.printf "baseline %s: ok (%d pairs)\n" path (List.length baseline_rows)
  | rs ->
    Printf.eprintf "stoke verify: %d regression(s) past %s:\n" (List.length rs)
      path;
    List.iter (fun r -> Printf.eprintf "  %s\n" r) (List.rev rs);
    exit 1

let verify_cmd =
  let run all kernel eta rewrite_file bb_depth bb_boxes bb_timeout fpcore json
      observed check_baseline write_baseline engine =
    let taylor =
      {
        Verify.Bbound.max_depth = bb_depth;
        max_boxes = bb_boxes;
        timeout_s = bb_timeout;
      }
    in
    let eta = Ulp.of_float eta in
    let rows =
      if all then begin
        if fpcore then exit_err "--fpcore needs a single kernel, not --all";
        if Option.is_some rewrite_file then
          exit_err "--rewrite needs a single kernel, not --all";
        List.map
          (fun (kname, spec) ->
            let label, rewrite = Kernels.Registry.shipped_rewrite kname spec in
            verify_one ~taylor ~eta ~observed ~engine ~kname spec label
              rewrite)
          Kernels.Registry.all
      end
      else begin
        let name, spec =
          match kernel with
          | Some k -> k
          | None -> exit_err "KERNEL required (or use --all)"
        in
        let label, rewrite =
          match rewrite_file with
          | Some path -> (Filename.basename path, read_program path)
          | None -> Kernels.Registry.shipped_rewrite name spec
        in
        if fpcore then begin
          match
            Result.bind
              (Verify.Symbolic.exec_pair spec ~rewrite)
              (Verify.Fpcore.difference spec)
          with
          | Ok text ->
            print_endline text;
            exit 0
          | Error e -> exit_err (Printf.sprintf "--fpcore: %s" e)
        end;
        [ verify_one ~taylor ~eta ~observed ~engine ~kname:name spec label
            rewrite ]
      end
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("command", Obs.Json.String "verify");
                ("rows", Obs.Json.List (List.map verify_row_json rows));
              ]))
    else begin
      print_verify_table rows;
      if not all then
        List.iter
          (fun r ->
            Printf.printf "%s\n" (Verify.Verifier.outcome_to_string r.vr_outcome))
          rows
    end;
    (match write_baseline with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       output_string oc
         (Obs.Json.to_string
            (Obs.Json.Obj
               [ ("rows", Obs.Json.List (List.map verify_row_json rows)) ])
         ^ "\n");
       close_out oc;
       Printf.printf "baseline written to %s\n" path);
    match check_baseline with
    | None -> ()
    | Some path -> check_against_baseline rows path
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Verify every built-in kernel against its shipped rewrite (or \
             itself when none ships) and print the per-kernel table.")
  in
  let kernel_opt_arg =
    Arg.(value & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL")
  in
  let bb_depth_arg =
    Arg.(
      value
      & opt int Verify.Bbound.default_config.Verify.Bbound.max_depth
      & info [ "bb-depth" ] ~docv:"N"
          ~doc:
            "Branch-and-bound subdivision depth for the Taylor tier.  \
             Deeper never loosens the bound (with --bb-timeout 0).")
  in
  let bb_boxes_arg =
    Arg.(
      value
      & opt int Verify.Bbound.default_config.Verify.Bbound.max_boxes
      & info [ "bb-boxes" ] ~docv:"N"
          ~doc:"Branch-and-bound box-evaluation budget for the Taylor tier.")
  in
  let bb_timeout_arg =
    Arg.(
      value
      & opt float Verify.Bbound.default_config.Verify.Bbound.timeout_s
      & info [ "bb-timeout" ] ~docv:"SECS"
          ~doc:
            "Cutoff per analysis for the Taylor tier, in seconds of the \
             process's CPU time, summed over all its domains and threads \
             (not wall clock); 0 disables it, making the reported bound \
             deterministic (required for baseline comparisons).")
  in
  let fpcore_flag =
    Arg.(
      value & flag
      & info [ "fpcore" ]
          ~doc:
            "Print the verification obligation (target − rewrite) as \
             FPCore and exit — the interchange format of external \
             round-off analyzers (FPTaylor, Daisy, Herbie).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the result table as one JSON object.")
  in
  let observed_flag =
    Arg.(
      value & flag
      & info [ "observed" ]
          ~doc:
            "Also hunt for the largest observed error with a short MCMC \
             validation run and report it next to the sound bound.")
  in
  let check_baseline_arg =
    Arg.(
      value & opt (some file) None
      & info [ "check-baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a baseline written by --write-baseline; exit \
             nonzero if any pair verifies at a weaker tier or a looser \
             sound bound.  Use with --bb-timeout 0.")
  in
  let write_baseline_arg =
    Arg.(
      value & opt (some string) None
      & info [ "write-baseline" ] ~docv:"FILE"
          ~doc:"Write this run's table as a baseline for --check-baseline.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Static verification: symbolic bit-wise equivalence, sound \
          Taylor-form round-off bounds with branch-and-bound, interval \
          analysis (see docs/VERIFY.md)")
    Term.(
      const run $ all_flag $ kernel_opt_arg $ eta_arg $ rewrite_file_arg
      $ bb_depth_arg $ bb_boxes_arg $ bb_timeout_arg $ fpcore_flag $ json_flag
      $ observed_flag $ check_baseline_arg $ write_baseline_arg $ engine_arg)

(* ----- frontier ----- *)

let frontier_cmd =
  let run (_, spec) etas config cold warm_frac max_demotions sweep_back
      sound_promote no_validate checkpoint resume trace_out progress =
    let resume =
      Option.map
        (fun path ->
          match Search.Frontier.read_snapshot ~spec ~path with
          | Ok s -> s
          | Error e -> exit_err (Printf.sprintf "--resume: %s" e))
        resume
    in
    let r =
      with_sink ~trace_out ~progress (fun obs ->
          try
            Stoke.frontier ~config ~validate_results:(not no_validate)
              ?etas:(Option.map (List.map Ulp.of_float) etas)
              ~warm:(not cold) ~warm_frac ~max_demotions ~sweep_back
              ~sound_promote ~obs ?checkpoint ?resume
              ~seed:config.Search.Optimizer.seed spec
          with Invalid_argument e -> exit_err e)
    in
    Printf.printf "%-12s %6s %8s %8s %14s %5s %10s %s\n" "eta" "LOC"
      "cycles" "speedup" "validated-err" "warm" "proposals" "demotions";
    List.iter
      (fun (p : Search.Frontier.point) ->
        Printf.printf "%-12s %6d %8d %8.2f %14s %5s %10d %d\n"
          (Ulp.to_string p.eta) p.loc p.latency p.speedup
          (match p.validated_err with
           | None -> "-"
           | Some e -> Ulp.to_string e)
          (if p.warm then "yes" else "no")
          p.proposals_used p.demotions)
      r.Search.Frontier.points;
    Printf.printf "pareto frontier (%d of %d points):\n"
      (List.length r.Search.Frontier.pareto)
      (List.length r.Search.Frontier.points);
    List.iter
      (fun (p : Search.Frontier.point) ->
        Printf.printf "  %8d cycles  err <= %s ULPs  (eta %s)\n" p.latency
          (Ulp.to_string (Search.Frontier.err_bound p))
          (Ulp.to_string p.eta))
      r.Search.Frontier.pareto;
    Printf.printf
      "search proposals: %d of %d cold budget (%.1f%%), %d demotions, %d \
       counterexamples, %d sound promotions\n"
      r.Search.Frontier.total_proposals r.Search.Frontier.cold_budget
      (100.
      *. float_of_int r.Search.Frontier.total_proposals
      /. float_of_int (max 1 r.Search.Frontier.cold_budget))
      r.Search.Frontier.demotions r.Search.Frontier.tests_added
      r.Search.Frontier.promotions
  in
  let etas_arg =
    let doc =
      "Comma-separated η grid in ULPs (e.g. $(b,1,1e4,1e8)); defaults to \
       the paper's grid 10^0..10^18."
    in
    Arg.(
      value
      & opt (some etas_conv) None
      & info [ "etas" ] ~docv:"LIST" ~doc)
  in
  let cold_flag =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Disable warm-starting: every η runs cold with the full budget, \
             in the order given, and is never demoted — one search per η, \
             the per-point sweep of the paper's Figures 4 and 5.  With \
             $(b,--no-validate) the curve is search-only; otherwise each \
             point gets the full (non-refuting) MCMC validation.")
  in
  let warm_frac_arg =
    Arg.(
      value & opt float 0.25
      & info [ "warm-frac" ] ~docv:"F"
          ~doc:
            "Fraction of --proposals granted to each warm-started point, \
             in (0, 1].")
  in
  let max_demotions_arg =
    Arg.(
      value & opt int 2
      & info [ "max-demotions" ] ~docv:"N"
          ~doc:"Re-search rounds after a validation failure per point (>= 0).")
  in
  let sweep_back_flag =
    Arg.(
      value & flag
      & info [ "sweep-back" ]
          ~doc:
            "After the tight-to-loose walk, sweep back loose-to-tight, \
             adopting a looser point's winner wherever it is faster and \
             survives re-validation at the tighter η.")
  in
  let sound_promote_flag =
    Arg.(
      value & flag
      & info [ "sound-promote" ]
          ~doc:
            "Before spending MCMC budget on a candidate, try the static \
             verifier (bit-wise / Taylor branch-and-bound / interval); a \
             candidate whose sound bound is ≤ η is promoted immediately \
             with the certified bound as its error.")
  in
  let no_validate_flag =
    Arg.(
      value & flag
      & info [ "no-validate" ]
          ~doc:"Skip MCMC validation (curve reports search-only results).")
  in
  let checkpoint_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Write a frontier snapshot to $(docv) after every point.")
  in
  let resume_arg =
    Arg.(
      value & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:"Resume the walk from a frontier snapshot.")
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:
         "One-run speedup-vs-η Pareto frontier with warm-started chains \
          (Figure 9/10; see docs/SWEEP.md)")
    Term.(
      const run $ kernel_arg $ etas_arg $ search_arg $ cold_flag
      $ warm_frac_arg $ max_demotions_arg $ sweep_back_flag
      $ sound_promote_flag $ no_validate_flag $ checkpoint_arg $ resume_arg
      $ trace_out_arg $ progress_arg)

(* ----- encode ----- *)

let encode_cmd =
  let run (name, spec) asm_file =
    let program, what =
      match asm_file with
      | None -> (spec.Sandbox.Spec.program, name)
      | Some path -> (read_program path, path)
    in
    List.iter
      (fun i ->
        match Encoder.encode_instr i with
        | Ok bytes ->
          Printf.printf "%-40s %s%s\n" (Instr.to_string i)
            (Encoder.hex bytes)
            (if Sandbox.Native.native_instr i then ""
             else "   [batched fallback]")
        | Error e ->
          Printf.printf "%-40s <unencodable: %s>\n" (Instr.to_string i) e)
      (Program.instrs program);
    (* what the native engine would actually run: the whole guarded
       trampoline, when this platform and program admit one *)
    if Sandbox.Native.available () then begin
      let m =
        Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size ()
      in
      match Sandbox.Native.create_batch m [| Sandbox.Testcase.empty |] with
      | None -> Printf.printf "\n%s: native worker unavailable\n" what
      | Some b ->
        (match Sandbox.Native.compile b program with
         | None ->
           Printf.printf
             "\n%s: no native trampoline (some instruction falls back)\n"
             what
         | Some np ->
           Printf.printf "\n%s: native trampoline, %d bytes:\n%s\n" what
             (String.length (Sandbox.Native.code np))
             (Encoder.hex (Sandbox.Native.code np)))
    end
    else Printf.printf "\n%s: native execution unavailable here\n" what
  in
  let asm_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "asm" ] ~docv:"FILE"
          ~doc:
            "Encode this assembly file against KERNEL's machine instead of \
             the kernel's own target program.")
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:
         "Hex-dump a kernel's (or assembly file's) machine-code encoding, \
          flagging instructions the native engine would not run, plus the \
          full native trampoline when available")
    Term.(const run $ kernel_arg $ asm_arg)

(* ----- disasm ----- *)

let disasm_cmd =
  let run path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let bytes = really_input_string ic len in
    close_in ic;
    match Decoder.disassemble bytes with
    | Ok text -> print_endline text
    | Error e -> exit_err e
  in
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble raw machine-code bytes")
    Term.(const run $ file_arg)

(* ----- raytrace ----- *)

let raytrace_cmd =
  let run out width height samples variant seed =
    let ops =
      match variant with
      | "native" -> Apps.Raytracer.native_ops ()
      | "target" -> Apps.Raytracer.kernel_ops Apps.Raytracer.target_kernels
      | "rewrite" ->
        Apps.Raytracer.kernel_ops
          {
            Apps.Raytracer.k_scale = Kernels.Aek_kernels.scale_rewrite;
            k_dot = Kernels.Aek_kernels.dot_rewrite;
            k_add = Kernels.Aek_kernels.add_rewrite;
            k_delta = Kernels.Aek_kernels.delta_rewrite;
          }
      | "invalid" ->
        Apps.Raytracer.kernel_ops
          {
            Apps.Raytracer.target_kernels with
            Apps.Raytracer.k_delta = Kernels.Aek_kernels.delta_prime;
          }
      | other -> exit_err (Printf.sprintf "unknown variant %S" other)
    in
    let img, stats =
      Apps.Raytracer.render ~width ~height ~samples ~seed:(Int64.of_int seed) ops
    in
    Apps.Ppm.write img out;
    Printf.printf "wrote %s (%dx%d, %d samples): %d kernel calls, %d cycles\n"
      out width height samples stats.Apps.Raytracer.kernel_calls
      stats.Apps.Raytracer.kernel_cycles
  in
  let out_arg =
    Arg.(value & opt string "aek.ppm" & info [ "o"; "output" ] ~docv:"FILE")
  in
  let w_arg = Arg.(value & opt int 64 & info [ "width" ]) in
  let h_arg = Arg.(value & opt int 48 & info [ "height" ]) in
  let s_arg = Arg.(value & opt int 6 & info [ "samples" ]) in
  let variant_arg =
    Arg.(
      value
      & opt string "target"
      & info [ "kernels" ] ~docv:"native|target|rewrite|invalid")
  in
  Cmd.v
    (Cmd.info "raytrace" ~doc:"Render the aek scene through chosen kernels")
    Term.(const run $ out_arg $ w_arg $ h_arg $ s_arg $ variant_arg $ seed_arg)

(* ----- lint ----- *)

let lint_cmd =
  let run (name, spec) asm_file =
    let program, what =
      match asm_file with
      | None -> (spec.Sandbox.Spec.program, name)
      | Some path -> (read_program path, path)
    in
    let diags = Analysis.Dataflow.lint_program spec program in
    (match diags with
     | [] -> Printf.printf "%s: clean (%d slots)\n" what (Program.length program)
     | _ ->
       Printf.printf "%s: %d finding(s)\n" what (List.length diags);
       List.iter
         (fun d -> print_endline ("  " ^ Analysis.Dataflow.diag_to_string program d))
         diags;
       exit 1)
  in
  let asm_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "asm" ] ~docv:"FILE"
          ~doc:
            "Lint this assembly file against KERNEL's live-ins and \
             live-outs instead of the kernel's own target program.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static diagnostics over a kernel or an assembly file: undef \
          reads, dead slots, dead writes, self-moves (exit 1 on findings)")
    Term.(const run $ kernel_arg $ asm_arg)

(* ----- diffusion ----- *)

let diffusion_cmd =
  let run rewrite_file =
    let baseline = Apps.Diffusion.run Apps.Diffusion.default_config in
    Printf.printf
      "target:  checksum %.9e, %d exp calls, %d exp cycles, %d total cycles\n"
      baseline.Apps.Diffusion.checksum baseline.Apps.Diffusion.exp_calls
      baseline.Apps.Diffusion.exp_cycles baseline.Apps.Diffusion.total_cycles;
    match rewrite_file with
    | None -> ()
    | Some path ->
      let p = read_program path in
      let o = Apps.Diffusion.run ~exp_program:p Apps.Diffusion.default_config in
      Printf.printf
        "rewrite: checksum %.9e, %d total cycles -> task speedup %.2fx, tolerated: %b\n"
        o.Apps.Diffusion.checksum o.Apps.Diffusion.total_cycles
        (Apps.Diffusion.speedup ~baseline o)
        (Apps.Diffusion.tolerates ~baseline o)
  in
  Cmd.v
    (Cmd.info "diffusion" ~doc:"Run the S3D diffusion leaf task")
    Term.(const run $ rewrite_file_arg)

(* ----- serve ----- *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(
    value
    & opt string "/tmp/stoke.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run socket state_dir workers max_queue deadline checkpoint_every
      io_timeout max_domains trace_out =
    with_sink ~trace_out ~progress:None @@ fun log ->
    Serve.Server.run
      ~on_ready:(fun srv ->
        let stop _ = Serve.Server.shutdown srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Printf.eprintf "stoke serve: listening on %s (state in %s)\n%!"
          socket state_dir)
      {
        (Serve.Server.default_config ~socket_path:socket ~state_dir
           ~kernels:Kernels.Registry.all)
        with
        Serve.Server.workers;
        max_queue;
        default_deadline_s = deadline;
        checkpoint_every_s = checkpoint_every;
        io_timeout_s = io_timeout;
        max_domains;
        log;
      }
  in
  let state_dir_arg =
    Arg.(
      value
      & opt string "/tmp/stoke-serve"
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable job state: per-job checkpoints and memoized results \
             live here and survive daemon restarts.")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:"Concurrent jobs (each may use several search domains).")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Admission bound; jobs beyond it are rejected, not queued.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"SECS"
          ~doc:"Deadline for jobs that do not carry their own.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt float 10.
      & info [ "checkpoint-every" ] ~docv:"SECS"
          ~doc:"Snapshot cadence for running jobs (default 10).")
  in
  let io_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "io-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-connection socket read/write timeout: a client that \
             never sends its request, or stops draining its event \
             stream, is disconnected after $(docv) seconds (default \
             30).")
  in
  let max_domains_arg =
    Arg.(
      value & opt int 4
      & info [ "max-domains" ] ~docv:"N"
          ~doc:"Cap on the search domains any one job may request.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent search daemon (Unix-domain socket, durable \
          job state, cross-job result memoization)")
    Term.(
      const run $ socket_arg $ state_dir_arg $ workers_arg $ max_queue_arg
      $ deadline_arg $ checkpoint_every_arg $ io_timeout_arg
      $ max_domains_arg $ trace_out_arg)

(* ----- submit ----- *)

let submit_cmd =
  let run socket op kernel eta etas proposals seed domains deadline
      rewrite_file tenant quiet =
    let action =
      match op with
      | "ping" -> Serve.Protocol.Ping
      | "shutdown" -> Serve.Protocol.Shutdown
      | "optimize" ->
        Serve.Protocol.Optimize { eta; proposals; seed; domains }
      | "frontier" ->
        let etas =
          match etas with
          | [] -> List.map Ulp.to_float Stoke.default_etas
          | es -> es
        in
        Serve.Protocol.Frontier { etas; proposals; seed }
      | "validate" -> (
        match rewrite_file with
        | None -> exit_err "validate needs --rewrite FILE"
        | Some path ->
          let ic = open_in path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Serve.Protocol.Validate { eta; rewrite = text; seed })
      | other -> exit_err (Printf.sprintf "unknown op %S" other)
    in
    let req =
      {
        Serve.Protocol.kernel;
        tenant;
        deadline_s = deadline;
        action;
      }
    in
    let on_event ev =
      if not quiet then print_endline (Obs.Sink.event_to_string ev)
    in
    match Serve.Client.submit ~socket_path:socket ~on_event req with
    | Error e -> exit_err e
    | Ok terminal ->
      if quiet then print_endline (Obs.Sink.event_to_string terminal);
      let ok =
        terminal.Obs.Sink.name = "pong"
        || Serve.Client.job_status terminal = "ok"
      in
      exit (if ok then 0 else 1)
  in
  let op_arg =
    let doc =
      "Job type: $(b,optimize), $(b,frontier), $(b,validate), $(b,ping), \
       or $(b,shutdown)."
    in
    Arg.(value & opt string "optimize" & info [ "op" ] ~docv:"OP" ~doc)
  in
  let kernel_opt_arg =
    let doc = "Kernel name (see $(b,stoke list)); unused for ping/shutdown." in
    Arg.(value & pos 0 string "" & info [] ~docv:"KERNEL" ~doc)
  in
  let etas_arg =
    Arg.(
      value
      & opt etas_conv []
      & info [ "etas" ] ~docv:"ULPS,..."
          ~doc:"η grid for --op frontier (defaults to the paper's grid).")
  in
  let domains_arg =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Search domains to request (the server may cap this).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS" ~doc:"Per-job wall-clock budget.")
  in
  let tenant_arg =
    Arg.(
      value
      & opt string Serve.Protocol.default_tenant
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Fair-share group this job is accounted to.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:"Print only the terminal job_end event, not the full stream.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job to a running stoke serve daemon and stream its \
             events")
    Term.(
      const run $ socket_arg $ op_arg $ kernel_opt_arg $ eta_arg $ etas_arg
      $ proposals_arg $ seed_arg $ domains_arg $ deadline_arg
      $ rewrite_file_arg $ tenant_arg $ quiet_arg)

let main =
  let info =
    Cmd.info "stoke" ~version:"1.0.0"
      ~doc:"Stochastic optimization of floating-point programs with tunable precision"
  in
  Cmd.group info
    [
      list_cmd; show_cmd; optimize_cmd; refine_cmd; validate_cmd; verify_cmd;
      frontier_cmd; serve_cmd; submit_cmd;
      encode_cmd; disasm_cmd; lint_cmd; raytrace_cmd; diffusion_cmd;
    ]

let () = exit (Cmd.eval main)

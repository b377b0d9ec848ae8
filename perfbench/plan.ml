(* What the workloads run, and the expected file that checks it.

   Every search and validation input comes from a fixed pool (kernel, η,
   chain seed, budget) so that [expected.json] can hold the oracle's
   answer for each one.  A run goes through the pool in whole passes, in
   an order drawn from the workload seed, so two seeds time the same
   multiset of inputs and their medians and tails differ only by noise.
   The layer sweep's serve jobs come from a pool too, each seed used once
   per session.  The
   oracle is the same public call under the [Interp] engine — the
   reference interpreter, not the default engine under test. *)

let kernel_registry =
  Kernels.Libimf.all
  @ [ ("s3d_exp", Kernels.S3d.exp_spec) ]
  @ Kernels.Aek_kernels.all_specs

let spec_of name = List.assoc name kernel_registry

(* ---------- search ---------- *)

type skernel = {
  kname : string;
  eta : float;
  speedup : float;
      (** time-to-target goal: target latency ÷ this; every pool seed
          reaches it well inside [target_cap] *)
}

let search_kernels =
  [
    { kname = "exp"; eta = 1e10; speedup = 1.7 };
    { kname = "sin"; eta = 1e14; speedup = 1.2 };
  ]

let chain_seeds = List.init 50 (fun i -> i + 1)
let fixed_budget = 5_000
let target_cap = 60_000

let target_cost k =
  float_of_int (Latency.of_program (spec_of k.kname).Sandbox.Spec.program)
  /. k.speedup

let search_config ?(engine = Search.Optimizer.default_config.Search.Optimizer.engine)
    ?(stop = Search.Control.Exhaust) ~seed ~proposals () =
  {
    Search.Optimizer.default_config with
    Search.Optimizer.proposals;
    seed = Int64.of_int seed;
    engine;
    stop_when = stop;
  }

(* The two search shapes a workload cycle runs per kernel. *)
type search_job =
  | Fixed of { k : skernel; seed : int }
  | To_target of { k : skernel; seed : int }

let search_key = function
  | Fixed { k; seed } -> Printf.sprintf "fixed|%s|%g|%d|%d" k.kname k.eta seed fixed_budget
  | To_target { k; seed } ->
    Printf.sprintf "target|%s|%g|%d|%d|%h" k.kname k.eta seed target_cap (target_cost k)

let run_search ?engine job =
  let k, config =
    match job with
    | Fixed { k; seed } -> (k, search_config ?engine ~seed ~proposals:fixed_budget ())
    | To_target { k; seed } ->
      ( k,
        search_config ?engine ~seed ~proposals:target_cap
          ~stop:(Search.Control.Cost_below (target_cost k)) () )
  in
  Stoke.optimize ~config ~eta:(Ulp.of_float k.eta) (spec_of k.kname)

(* ---------- check ---------- *)

(* The fixed-seed search winners the check workload validates. *)
let winner_runs = [ ("exp", 1e10, 7, 50_000); ("sin", 1e14, 7, 50_000) ]

(* The pairs `stoke verify --all` checks: each kernel against its shipped
   rewrite, or itself when none ships. *)
let shipped_pairs =
  let shipped =
    [
      ("sin", ("sin_assoc", Kernels.Libimf.sin_assoc_rewrite));
      ("scale", ("scale_rewrite", Kernels.Aek_kernels.scale_rewrite));
      ("dot", ("dot_rewrite", Kernels.Aek_kernels.dot_rewrite));
      ("add", ("add_rewrite", Kernels.Aek_kernels.add_rewrite));
      ("delta", ("delta_rewrite", Kernels.Aek_kernels.delta_rewrite));
    ]
  in
  List.map
    (fun (kname, spec) ->
      match List.assoc_opt kname shipped with
      | Some (label, p) -> (kname, label, p)
      | None -> (kname, "self", spec.Sandbox.Spec.program))
    kernel_registry

let validation_seeds = List.init 9 (fun i -> i + 1)

(* Smaller than Validate.Driver's default (2M cap) so a verdict takes tenths of
   a second; the same budget `stoke verify --observed` spends. *)
let validate_config ~seed =
  {
    Validate.Driver.default_config with
    Validate.Driver.max_proposals = 60_000;
    min_samples = 10_000;
    check_every = 10_000;
    seed = Int64.of_int seed;
  }

(* Deterministic branch-and-bound effort, as bench/verify_baseline.json
   was recorded (--bb-timeout 0). *)
let taylor = { Verify.Bbound.default_config with Verify.Bbound.timeout_s = 0. }

type pair = { pname : string; pkernel : string; peta : float; rewrite : Program.t }

let validate_key p ~seed = Printf.sprintf "validate|%s|%g|%d" p.pname p.peta seed

let run_validate ?engine p ~seed =
  Stoke.validate ~config:(validate_config ~seed) ?engine ~eta:(Ulp.of_float p.peta)
    (spec_of p.pkernel) p.rewrite

(* ---------- serve ---------- *)

(* A serve optimize request.  The hit set's are tiny add jobs; the fresh
   jobs are exp jobs of 2000 to 6000 proposals. *)
type sjob = { skernel : string; seta : float; sproposals : int; sseed : int }

let hit_job seed = { skernel = "add"; seta = 0.; sproposals = 500; sseed = seed }

let fresh_job seed =
  { skernel = "exp"; seta = 1e10; sproposals = 2_000 + (1_000 * (seed mod 5)); sseed = seed }
let hit_seeds = List.init 8 (fun i -> i + 1)
let job_seeds = List.init 40 (fun i -> i + 1)

let serve_request ~tenant j =
  {
    Serve.Protocol.kernel = j.skernel;
    tenant;
    deadline_s = None;
    action =
      Serve.Protocol.Optimize
        { eta = j.seta; proposals = j.sproposals; seed = j.sseed; domains = 1 };
  }

let serve_key j = Printf.sprintf "serve|%s|%g|%d|%d" j.skernel j.seta j.sseed j.sproposals

(* The library's answer to a serve optimize request, as the daemon
   computes it (one domain, tests from seed + 100). *)
let library_result ~engine j =
  let spec = spec_of j.skernel in
  let config = search_config ~engine ~seed:j.sseed ~proposals:j.sproposals () in
  let r = Stoke.optimize_parallel ~config ~domains:1 ~eta:(Ulp.of_float j.seta) spec in
  Obs.Json.to_string (Serve.Protocol.optimize_result_json spec r)

(* ---------- the expected file ---------- *)

type expected = {
  searches : (string * (string * int * string)) list;
      (** key → (hash, latency, stop reason) *)
  winners : (string * Program.t) list;  (** "exp" / "sin" → winner *)
  verdicts : (string * (string * bool * bool * int)) list;
      (** key → (max_err, validated, mixed, iterations) *)
  answers : (string * string) list;  (** serve key → job_end result *)
}

let hash_hex p = Printf.sprintf "%016Lx" (Program.hash p)

let winner_of (r : Search.Optimizer.result) =
  match r.Search.Optimizer.best_correct with
  | Some p -> p
  | None -> invalid_arg "search found no correct rewrite"

let winner_key (k, eta, seed, budget) = Printf.sprintf "winner|%s|%g|%d|%d" k eta seed budget

let validation_pairs winners =
  List.map
    (fun (k, label, p) -> { pname = k ^ "/" ^ label; pkernel = k; peta = 0.; rewrite = p })
    shipped_pairs
  @ List.map
      (fun (k, eta, _, _) ->
        { pname = k ^ "/winner"; pkernel = k; peta = eta; rewrite = List.assoc k winners })
      winner_runs

let all_search_jobs =
  List.concat_map
    (fun k ->
      List.concat_map (fun seed -> [ Fixed { k; seed }; To_target { k; seed } ]) chain_seeds)
    search_kernels

(* Regenerate [expected.json] with the reference interpreter. *)
let generate path =
  let engine = Sandbox.Exec.Interp in
  let j = Obs.Json.(fun (s : string) -> String s) in
  let searches =
    List.map
      (fun job ->
        let r = run_search ~engine job in
        let p = winner_of r in
        Obs.Json.Obj
          [
            ("key", j (search_key job));
            ("hash", j (hash_hex p));
            ("latency", Obs.Json.Int (Latency.of_program p));
            ( "stop_reason",
              j (Search.Control.stop_reason_to_string r.Search.Optimizer.stop_reason) );
          ])
      all_search_jobs
  in
  let winners =
    List.map
      (fun ((k, eta, seed, budget) as w) ->
        let config = search_config ~engine ~seed ~proposals:budget () in
        let p = winner_of (Stoke.optimize ~config ~eta:(Ulp.of_float eta) (spec_of k)) in
        (* stored as assembly text, so keep what that text parses back to *)
        (k, winner_key w, Parser.parse_program_exn (Program.to_string p)))
      winner_runs
  in
  let verdicts =
    List.concat_map
      (fun p ->
        List.map
          (fun seed ->
            let v = run_validate ~engine p ~seed in
            Obs.Json.Obj
              [
                ("key", j (validate_key p ~seed));
                ("max_err", j (Ulp.to_string v.Validate.Driver.max_err));
                ("validated", Obs.Json.Bool v.Validate.Driver.validated);
                ("mixed", Obs.Json.Bool v.Validate.Driver.mixed);
                ("iterations", Obs.Json.Int v.Validate.Driver.iterations);
              ])
          validation_seeds)
      (validation_pairs (List.map (fun (k, _, p) -> (k, p)) winners))
  in
  let answers =
    List.map
      (fun job ->
        Obs.Json.Obj
          [ ("key", j (serve_key job)); ("result", j (library_result ~engine job)) ])
      (List.map hit_job hit_seeds @ List.map fresh_job job_seeds)
  in
  let winners =
    List.map
      (fun (k, key, p) ->
        Obs.Json.Obj
          [
            ("kernel", j k);
            ("key", j key);
            ("hash", j (hash_hex p));
            ("program", j (Program.to_string p));
          ])
      winners
  in
  (* one entry per line keeps diffs of the file readable *)
  let section name items =
    Printf.sprintf "%S: [\n%s\n]" name (String.concat ",\n" (List.map Obs.Json.to_string items))
  in
  let oc = open_out path in
  output_string oc
    ("{\n"
    ^ String.concat ",\n"
        [
          {|"oracle": "interp"|};
          section "searches" searches;
          section "winners" winners;
          section "verdicts" verdicts;
          section "serve" answers;
        ]
    ^ "\n}\n");
  close_out oc

let load path =
  let doc = Obs.Json.of_string_exn (Measure.read_file path) in
  let field name x =
    match Obs.Json.member name x with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing %S" path name)
  in
  let str name x = Option.get (Obs.Json.to_string_opt (field name x)) in
  let int name x = Option.get (Obs.Json.to_int_opt (field name x)) in
  let bool name x = Option.get (Obs.Json.to_bool_opt (field name x)) in
  let items name = Option.get (Obs.Json.to_list_opt (field name doc)) in
  {
    searches =
      List.map
        (fun x -> (str "key" x, (str "hash" x, int "latency" x, str "stop_reason" x)))
        (items "searches");
    winners =
      List.map
        (fun x ->
          let p = Parser.parse_program_exn (str "program" x) in
          if hash_hex p <> str "hash" x then
            failwith (Printf.sprintf "%s: winner %s does not hash to its entry" path (str "key" x));
          (str "kernel" x, p))
        (items "winners");
    verdicts =
      List.map
        (fun x ->
          ( str "key" x,
            (str "max_err" x, bool "validated" x, bool "mixed" x, int "iterations" x) ))
        (items "verdicts");
    answers = List.map (fun x -> (str "key" x, str "result" x)) (items "serve");
  }

(* The repository benchmark.

     bench.exe --workload search|check --seed N --seconds S --trace 0|1
     bench.exe --generate-expected

   With --trace 0 it times the workload's set-up, runs it untraced for S
   seconds and reports the end-to-end metrics; with --trace 1 it runs the
   workload untraced and then traced, replays its inner loop, then runs
   the per-layer sweep, and reports the per-layer metrics.  Every output is checked (see
   plan.ml).  Human-readable lines go first; the last line of stdout is
   one JSON object {correct, attempted, failed, metrics}.  Run it through
   perfbench/run.py, which builds it first. *)

let usage =
  "bench.exe --workload search|check --seed N --seconds S --trace 0|1 [--cli PATH]\n\
   bench.exe --generate-expected"

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let cli = ref "_build/default/bin/stoke_cli.exe"
let generate = ref false

(* Paths relative to the repository root, where the benchmark runs. *)
let out_dir = "perfbench/out"
let expected_path = "perfbench/expected.json"
let baseline_path = "bench/verify_baseline.json"

let spec =
  [
    ("--workload", Arg.Set_string workload, "search or check");
    ("--seed", Arg.Set_int seed, "workload seed");
    ("--seconds", Arg.Set_float seconds, "run length");
    ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced run, per-layer metrics");
    ("--cli", Arg.Set_string cli, "the stoke CLI binary (the sweep's serve daemon)");
    ("--generate-expected", Arg.Set generate, "regenerate the expected file and exit");
  ]

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ---------- one workload, behind a common face ---------- *)

type pass = {
  names : Outcome.names;
  setup : unit -> unit;  (** one set-up, kept for [measure] *)
  measure : full:bool -> seconds:float -> Tally.t -> Outcome.t;
      (** [full]: hold the run open until every tail has its samples *)
}

let pass_of ~expected =
  let seed = !seed in
  match !workload with
  | "search" ->
    let env = ref None in
    {
      names = Wsearch.names;
      setup = (fun () -> env := Some (Wsearch.setup ~seed expected));
      measure = (fun ~full ~seconds t -> Wsearch.run ~full (Option.get !env) ~seconds t);
    }
  | "check" ->
    let env = ref None in
    {
      names = Wcheck.names;
      setup = (fun () -> env := Some (Wcheck.setup ~seed ~baseline:baseline_path expected));
      measure = (fun ~full ~seconds t -> Wcheck.run ~full (Option.get !env) ~seconds t);
    }
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

(* A short two-tenant serve session for the layer sweep's serve rows. *)
let mini_serve ~expected tally =
  let dir = Filename.concat out_dir "serve-sweep" in
  let env = Wserve.setup ~seed:!seed ~cli:!cli ~dir ~expected tally in
  Fun.protect
    ~finally:(fun () -> Wserve.teardown env)
    (fun () -> Wserve.run_clients env ~seconds:2. tally)

(* ---------- reporting ---------- *)

let host_json () =
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Int (Measure.nproc ()));
      ("native_available", Obs.Json.Bool (Sandbox.Native.available ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("workload", Obs.Json.String !workload);
      ("seed", Obs.Json.Int !seed);
      ("seconds", Obs.Json.Float !seconds);
      ("trace", Obs.Json.Int !trace);
    ]

let metric_json (name, value, unit_) =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit_) ])

(* The end-to-end metrics under the names every workload shares, and the
   same figures under this workload's own names. *)
let end_to_end (pass : pass) (o : Outcome.t) ~setup_s ~rss =
  let ms xs = List.map (fun s -> s *. 1e3) xs in
  let op = ms o.op and op2 = ms o.op2 in
  let n = pass.names in
  let shared =
    [
      ("throughput", o.work /. o.work_s, "1/s");
      ("op_p50_ms", Measure.median op, "ms");
      ("op_tail_ms", Measure.quantile Measure.tail op, "ms");
      ("op2_p50_ms", Measure.median op2, "ms");
      ("op2_tail_ms", Measure.quantile Measure.tail op2, "ms");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss, "MB");
    ]
  in
  let own =
    [
      (n.work_name, o.work /. o.work_s, n.work_unit);
      (Printf.sprintf "%s_p50_ms" n.op_name, Measure.median op, "ms");
      (Printf.sprintf "%s_p90_ms" n.op_name, Measure.quantile Measure.tail op, "ms");
      (Printf.sprintf "%s_p50_ms" n.op2_name, Measure.median op2, "ms");
      (Printf.sprintf "%s_p90_ms" n.op2_name, Measure.quantile Measure.tail op2, "ms");
    ]
  in
  say "samples: %d %s, %d %s" (List.length op) n.op_name (List.length op2) n.op2_name;
  (shared, own)

let print_rows title rows =
  say "%s" title;
  List.iter (fun (name, v, u) -> say "  %-34s %14.6g %s" name v u) rows

let print_failures (t : Tally.t) =
  say "failed_frac %.6g (%d failed of %d attempted)"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    t.failed t.attempted;
  List.iteri (fun i r -> if i < 20 then say "  FAILED: %s" r) (List.rev t.reasons)

let write_result ~metrics ~(tally : Tally.t) extra =
  let name = Printf.sprintf "result-%s-seed%d-trace%d.json" !workload !seed !trace in
  let doc =
    Obs.Json.Obj
      ([
         ("host", host_json ());
         ("attempted", Obs.Json.Int tally.attempted);
         ("failed", Obs.Json.Int tally.failed);
         ("failures", Obs.Json.List (List.map (fun r -> Obs.Json.String r) tally.reasons));
         ("metrics", Obs.Json.Obj (List.map metric_json metrics));
       ]
      @ extra)
  in
  let oc = open_out (Filename.concat out_dir name) in
  output_string oc (Obs.Json.to_string doc ^ "\n");
  close_out oc

let final_line ~(tally : Tally.t) metrics =
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (tally.failed = 0));
            ("attempted", Obs.Json.Int tally.attempted);
            ("failed", Obs.Json.Int tally.failed);
            ("metrics", Obs.Json.Obj (List.map metric_json metrics));
          ]))

let print_shares title spans =
  say "%s" title;
  List.iter (fun (l, share) -> say "  %-12s %6.1f%%" l (100. *. share)) (Spans.self_shares spans)

(* ---------- the two kinds of run ---------- *)

(* One set-up takes milliseconds, too short to time alone on a shared
   host.  A sample runs whole set-ups back to back, from a freshly
   collected heap, for at least [setup_sample_s]; the figure is the median
   over [setup_samples] samples of seconds per set-up.  Samples of a
   second take in the major collections a set-up's allocation causes;
   0.25 s samples spread twice as much between runs.  The last set-up is
   the one [measure] uses. *)
let setup_sample_s = 1.
let setup_samples = 5

let timed_setups pass =
  let sample () =
    Gc.full_major ();
    let t0 = Measure.now_ns () and n = ref 0 in
    while
      pass.setup ();
      incr n;
      Measure.secs_since t0 < setup_sample_s
    do
      ()
    done;
    Measure.secs_since t0 /. float_of_int !n
  in
  Measure.median (List.init setup_samples (fun _ -> sample ()))

let end_to_end_run pass tally =
  let setup_s = timed_setups pass in
  let o = pass.measure ~full:true ~seconds:!seconds tally in
  let rss = Measure.peak_rss_mb () in
  let shared, own = end_to_end pass o ~setup_s ~rss in
  print_rows (Printf.sprintf "end-to-end, %s workload:" !workload) own;
  print_rows "end-to-end, shared names:" shared;
  print_failures tally;
  let samples xs = Obs.Json.List (List.rev_map (fun s -> Obs.Json.Float (s *. 1e3)) xs) in
  write_result ~metrics:shared ~tally
    [
      ("own_names", Obs.Json.Obj (List.map metric_json own));
      ("samples_ms", Obs.Json.Obj [ ("op", samples o.op); ("op2", samples o.op2) ]);
    ];
  final_line ~tally shared

let traced_run pass ~expected tally =
  (* both halves start from a fresh set-up with the same seed, so they
     run the same inputs in the same order *)
  let half = !seconds /. 2. in
  pass.setup ();
  let untraced = pass.measure ~full:false ~seconds:half tally in
  pass.setup ();
  Spans.on := true;
  let traced = pass.measure ~full:false ~seconds:half tally in
  let workload_spans = Spans.take () in
  let rate (o : Outcome.t) = o.work /. o.work_s in
  let overhead = (rate traced /. rate untraced) -. 1. in
  (* the public calls above run the whole loop inside the library; its
     replay splits that time by layer *)
  let loop_spans = Layers.inner_loop ~expected !workload tally in
  let serve_stats = mini_serve ~expected tally in
  ignore (Spans.take ());
  let rows, skips, sweep_spans = Layers.sweep ~out_dir ~expected ~serve_stats tally in
  Spans.on := false;
  let rows =
    rows @ [ { Layers.name = "obs.trace_overhead_frac"; value = overhead; unit_ = "fraction" } ]
  in
  let metrics = List.map (fun (r : Layers.row) -> (r.name, r.value, r.unit_)) rows in
  print_rows "per-layer (traced run):" metrics;
  List.iter (fun (s : Layers.skip) -> say "  %-34s skipped (%s)" (s.sname ^ ".*") s.reason) skips;
  print_shares
    (Printf.sprintf "self-time share by layer, %s workload (replay of its inner loop):" !workload)
    loop_spans;
  print_shares "self-time share by layer, layer sweep:" sweep_spans;
  Spans.write
    (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed))
    (workload_spans @ loop_spans @ sweep_spans);
  print_failures tally;
  write_result ~metrics ~tally
    [
      ( "skipped",
        Obs.Json.List
          (List.map
             (fun (s : Layers.skip) ->
               Obs.Json.Obj [ ("rows", Obs.Json.String s.sname); ("reason", Obs.Json.String s.reason) ])
             skips) );
    ];
  final_line ~tally metrics

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !generate then Plan.generate expected_path
  else begin
    if !workload = "" then begin
      prerr_endline usage;
      exit 2
    end;
    Measure.mkdir_p out_dir;
    let expected = Plan.load expected_path in
    let pass = pass_of ~expected in
    say "host: %s" (Obs.Json.to_string (host_json ()));
    let tally = Tally.create () in
    if !trace = 0 then end_to_end_run pass tally else traced_run pass ~expected tally;
    (* native workers are reaped by their finalisers *)
    Gc.full_major ();
    Gc.full_major ()
  end

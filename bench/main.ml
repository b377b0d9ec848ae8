(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6).  Run everything with `dune exec bench/main.exe`, or a
   single experiment by name, e.g. `dune exec bench/main.exe -- fig9`.
   Budgets scale with the STOKE_BENCH_SCALE environment variable. *)

let experiments =
  [
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig6-8", Aek_bench.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("ablations", Ablations.run);
    ("verify", Verify_bench.run);
    ("smoke", Smoke.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: args when args <> [] -> args
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> Util.with_trace name run
      | None ->
        Printf.eprintf "unknown experiment %S (known: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)

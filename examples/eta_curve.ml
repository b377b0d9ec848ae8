(* The η curve: regenerate a Figure-4-style LOC/speedup curve for one
   libimf kernel, writing a CSV that can be plotted directly.

   Run with: dune exec examples/eta_curve.exe -- [sin|cos|log|tan] [--cold]

   This is the paper's "variable-precision libimf" story: from a single
   double-precision implementation, generate the whole family of
   reduced-precision variants automatically.  By default the curve comes
   from ONE warm frontier walk ({!Stoke.frontier}): the η grid is visited
   tight-to-loose, each point's search seeded from its neighbour's winner,
   with MCMC validation interleaved — a fraction of the cost of sweeping
   every η from scratch.  Pass [--cold] for the classic per-point sweep
   ([~warm:false]: one full search per η); its winners are what the warm
   walk is measured against. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cold = List.mem "--cold" args in
  let name =
    match List.filter (fun a -> a <> "--cold") args with
    | n :: _ -> n
    | [] -> "sin"
  in
  let spec =
    match List.assoc_opt name Kernels.Libimf.all with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown kernel %s (choose sin, cos, log or tan)\n" name;
      exit 1
  in
  let config =
    { Search.Optimizer.default_config with Search.Optimizer.proposals = 50_000 }
  in
  let csv = name ^ "_sweep.csv" in
  let oc = open_out csv in
  output_string oc "eta,loc,cycles,speedup,validated_err\n";
  Printf.printf "%s %s over eta = 10^0 .. 10^18 (%s)\n%!"
    (if cold then "cold-sweeping" else "frontier-sweeping")
    name
    (if cold then "one search per point" else "one warm walk");
  let r = Stoke.frontier ~config ~warm:(not cold) ~tests:24 ~seed:7L spec in
  List.iter
    (fun (p : Search.Frontier.point) ->
      Printf.fprintf oc "%s,%d,%d,%.3f,%s\n" (Ulp.to_string p.eta) p.loc
        p.latency p.speedup
        (match p.validated_err with Some e -> Ulp.to_string e | None -> "");
      Printf.printf "eta=%-22s LOC=%-3d speedup=%.2fx\n" (Ulp.to_string p.eta)
        p.loc p.speedup)
    r.Search.Frontier.points;
  if not cold then
    Printf.printf
      "spent %d of %d cold-equivalent proposals (%.0f%%), %d demotions\n"
      r.Search.Frontier.total_proposals r.Search.Frontier.cold_budget
      (100.
      *. float_of_int r.Search.Frontier.total_proposals
      /. float_of_int (max 1 r.Search.Frontier.cold_budget))
      r.Search.Frontier.demotions;
  close_out oc;
  Printf.printf "wrote %s\n" csv;
  (* highlight the single- and half-precision budgets of §6.1 *)
  Printf.printf
    "(eta = %s is the single-precision budget; %s the half-precision one)\n"
    (Ulp.to_string Ulp.eta_single)
    (Ulp.to_string Ulp.eta_half)

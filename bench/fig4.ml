(* Figure 4: LOC and speedup versus η for the libimf kernels sin, log, tan
   (a–c), and the ULP error curves of the discovered rewrites (d–f).

   Paper shape: as η grows from 1 to 10^18, rewrites interpolate from the
   full double-precision kernel down to (nearly) the empty program, with
   speedups growing smoothly toward ~6x; the η = 5·10^9 and 4·10^12 lines
   correspond to single- and half-precision budgets. *)

let kernels = [ ("sin", Kernels.Libimf.sin_spec); ("log", Kernels.Libimf.log_spec);
                ("tan", Kernels.Libimf.tan_spec) ]

let run_sweep name (spec : Sandbox.Spec.t) =
  Util.subheading (Printf.sprintf "Fig 4: %s — LOC / speedup vs eta" name);
  let target_loc = Program.length spec.Sandbox.Spec.program in
  let target_lat = Latency.of_program spec.Sandbox.Spec.program in
  Printf.printf "ref: LOC=%d cycles=%d speedup=1.00\n" target_loc target_lat;
  Printf.printf "%-10s %5s %7s %8s %14s\n" "eta" "LOC" "cycles" "speedup" "validated-err";
  let r =
    Stoke.frontier ~warm:false
      ~config:(Util.search_config ~proposals:40_000 ())
      ~validate_results:false ~tests:24 ~obs:(Util.obs ()) ~seed:41L spec
  in
  let rewrites =
    List.map
      (fun (p : Search.Frontier.point) ->
        (* quick validation pass per point *)
        let v =
          Validate.Driver.run
            ~obs:(Util.obs ())
            ~config:(Util.validate_config ~proposals:30_000 ())
            ~eta:p.eta
            (Validate.Errfn.create spec ~rewrite:p.rewrite)
        in
        Printf.printf "%-10s %5d %7d %8.2f %14s\n"
          (Util.eta_to_string p.eta)
          p.loc p.latency p.speedup
          (Ulp.to_string v.Validate.Driver.max_err);
        (p.eta, p.rewrite))
      r.Search.Frontier.points
  in
  (* error curves over the input range for a subset of rewrites (Fig 4 d-f) *)
  Util.subheading (Printf.sprintf "Fig 4: %s — ULP error curves" name);
  let grid = Util.input_grid spec 9 in
  Printf.printf "%-10s" "eta\\x";
  Array.iter (fun x -> Printf.printf " %9.3f" x) grid;
  print_newline ();
  List.iteri
    (fun i (eta, rewrite) ->
      if i mod 2 = 1 then begin
        let curve = Stoke.error_curve spec rewrite ~inputs:grid in
        Printf.printf "%-10s" (Util.eta_to_string eta);
        Array.iter (fun u -> Printf.printf " %9.2e" (Ulp.to_float u)) curve;
        print_newline ()
      end)
    rewrites

let run () =
  Util.heading
    "Figure 4 — libimf kernels: precision/performance interpolation";
  Printf.printf
    "(reference lines: eta = 5e9 ~ single precision, 4e12 ~ half precision)\n";
  List.iter (fun (name, spec) -> run_sweep name spec) kernels

(* Figure 5: the S3D diffusion leaf task.

   (a) LOC/speedup of the exp kernel versus η, with the whole-task speedup
   of the diffusion leaf task (dashed curve in the paper) and the largest
   η the task tolerates end-to-end (vertical bar; paper: η = 10^7 giving a
   2x exp speedup and a 27% task speedup).
   (b) error curves of the exp rewrites; the paper reports a validated
   maximum of 1,730,391 ULPs for its chosen rewrite. *)

let spec = Kernels.S3d.exp_spec

let run () =
  Util.heading "Figure 5 — S3D diffusion leaf task (exp kernel)";
  let diffusion_cfg =
    { Apps.Diffusion.default_config with Apps.Diffusion.nx = 12; ny = 12 }
  in
  let baseline = Apps.Diffusion.run diffusion_cfg in
  Printf.printf
    "diffusion baseline: %d exp calls, exp fraction %.0f%% of %d cycles\n"
    baseline.Apps.Diffusion.exp_calls
    (100.
    *. float_of_int baseline.Apps.Diffusion.exp_cycles
    /. float_of_int baseline.Apps.Diffusion.total_cycles)
    baseline.Apps.Diffusion.total_cycles;
  Printf.printf "%-10s %5s %7s %11s %13s %9s\n" "eta" "LOC" "cycles"
    "exp-speedup" "task-speedup" "tolerated";
  let r =
    Stoke.frontier ~warm:false
      ~config:(Util.search_config ~proposals:40_000 ())
      ~validate_results:false ~tests:24 ~obs:(Util.obs ()) ~seed:51L spec
  in
  let chosen = ref None in
  let rewrites =
    List.map
      (fun (p : Search.Frontier.point) ->
        let o = Apps.Diffusion.run ~exp_program:p.rewrite diffusion_cfg in
        let task_speedup = Apps.Diffusion.speedup ~baseline o in
        let ok = Apps.Diffusion.tolerates ~baseline o in
        if ok then begin
          match !chosen with
          | Some (_, s) when s >= task_speedup -> ()
          | _ -> chosen := Some (p, task_speedup)
        end;
        Printf.printf "%-10s %5d %7d %11.2f %13.2f %9b\n"
          (Util.eta_to_string p.eta)
          p.loc p.latency p.speedup task_speedup ok;
        (p.eta, p.rewrite))
      r.Search.Frontier.points
  in
  (match !chosen with
   | None -> Printf.printf "no tolerated rewrite beats the target\n"
   | Some (p, s) ->
     Printf.printf
       "max tolerated point: eta=%s -> exp %.2fx, task %.2fx (paper: eta=1e7, exp 2x, task 1.27x)\n"
       (Util.eta_to_string p.eta) p.speedup s;
     (* validated bound for the chosen rewrite, as in Fig 5(b)'s highlighted
        curve (paper: 1,730,391 ULPs for its eta=1e7 rewrite) *)
     let v =
       Validate.Driver.run
         ~obs:(Util.obs ())
         ~config:(Util.validate_config ~proposals:80_000 ())
         ~eta:p.eta
         (Validate.Errfn.create spec ~rewrite:p.rewrite)
     in
     Printf.printf "validated max error of chosen rewrite: %s ULPs (Geweke Z=%.2f)\n"
       (Ulp.to_string v.Validate.Driver.max_err)
       v.Validate.Driver.geweke_z);
  Util.subheading "Fig 5(b): exp rewrite error curves";
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

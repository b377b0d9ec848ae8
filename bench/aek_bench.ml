(* Figures 6, 7 and 8: the aek vector kernels.

   Fig 6 — dot product: search at η=0 for a bit-wise-correct rewrite and
   prove it with the uninterpreted-function symbolic checker.
   Fig 7 — camera perturbation Δ: search with a small η; compare the MCMC
   validation bound (paper: 5 ULPs) against the static interval bound
   (paper: 1363.5 ULPs).
   Fig 8 — the summary table: per-kernel target/rewrite latency and LOC,
   speedup, bit-wise correctness, and end-to-end acceptability. *)

let searched ?(eta = 0L) ?(proposals = 120_000) ?(restarts = 2)
    (spec : Sandbox.Spec.t) =
  let config =
    { (Util.search_config ~proposals ~seed:61L ()) with
      Search.Optimizer.restarts }
  in
  let result = Stoke.optimize ~config ~eta spec in
  Util.best_rewrite spec result

let run_fig6 () =
  Util.subheading "Figure 6 — dot product <v1,v2>";
  let spec = Kernels.Aek_kernels.dot_spec in
  let rewrite = searched spec in
  Printf.printf "target (%d cycles):\n%s\n" (Latency.of_program spec.Sandbox.Spec.program)
    (Program.to_string spec.Sandbox.Spec.program);
  Printf.printf "\nSTOKE rewrite (%d cycles):\n%s\n" (Latency.of_program rewrite)
    (Program.to_string rewrite);
  (match Verify.Verifier.check spec ~rewrite ~eta:0L with
   | Verify.Verifier.Proved_bitwise ->
     Printf.printf "\nsearched rewrite: PROVED bit-wise correct via UF terms\n"
   | o ->
     Printf.printf "\nsearched rewrite: %s\n" (Verify.Verifier.outcome_to_string o));
  (* the paper's own rewrite, as transcription check *)
  match
    Verify.Symbolic.equivalent spec ~rewrite:Kernels.Aek_kernels.dot_rewrite
  with
  | Ok b -> Printf.printf "paper's Fig-6 rewrite bit-wise equivalent: %b\n" b
  | Error e -> Printf.printf "paper's Fig-6 rewrite not analyzable: %s\n" e

let run_fig7 () =
  Util.subheading "Figure 7 — camera perturbation Delta";
  let spec = Kernels.Aek_kernels.delta_spec in
  let rewrite = Kernels.Aek_kernels.delta_rewrite in
  Printf.printf "target: %d LOC, %d cycles; paper rewrite: %d LOC, %d cycles\n"
    (Program.length spec.Sandbox.Spec.program)
    (Latency.of_program spec.Sandbox.Spec.program)
    (Program.length rewrite) (Latency.of_program rewrite);
  let v =
    Validate.Driver.run
      ~config:(Util.validate_config ~proposals:80_000 ())
      ~eta:16L
      (Validate.Errfn.create spec ~rewrite)
  in
  Printf.printf "MCMC validation bound: %s ULPs (paper: 5)\n"
    (Ulp.to_string v.Validate.Driver.max_err);
  (match
     Result.bind
       (Verify.Symbolic.exec_pair spec ~rewrite)
       (Verify.Interval.static_ulp_bound spec)
   with
   | Ok a ->
     Printf.printf "static interval bound: %.1f scaled ULPs (paper: 1363.5)\n"
       a.Verify.Interval.bound_ulps
   | Error e -> Printf.printf "static bound unavailable: %s\n" e);
  (* a searched rewrite at the DOF-noise eta *)
  let searched_rw = searched ~eta:16L ~proposals:80_000 spec in
  Printf.printf "searched rewrite at eta=16: %d LOC, %d cycles (%.2fx)\n"
    (Program.length searched_rw) (Latency.of_program searched_rw)
    (Util.speedup_of spec searched_rw)

type row = {
  name : string;
  target_lat : int;
  rewrite_lat : int;
  target_loc : int;
  rewrite_loc : int;
  bitwise : bool;
  ok : bool;
}

let run_fig8 () =
  Util.subheading "Figure 8 — aek kernel summary table";
  let eval_kernel name (spec : Sandbox.Spec.t) ~eta ~ok =
    let rewrite = searched ~eta ~proposals:100_000 spec in
    let bitwise =
      match Verify.Symbolic.equivalent spec ~rewrite with
      | Ok b -> b
      | Error _ ->
        (* fall back to exhaustive-ish testing at eta 0 *)
        let e = Validate.Errfn.create spec ~rewrite in
        let g = Rng.Xoshiro256.create 3L in
        let all_zero = ref true in
        for _ = 1 to 2_000 do
          if
            Ulp.compare
              (Validate.Errfn.eval_ulp e (Sandbox.Spec.random_floats g spec))
              0L
            > 0
          then all_zero := false
        done;
        !all_zero
    in
    {
      name;
      target_lat = Latency.of_program spec.Sandbox.Spec.program;
      rewrite_lat = Latency.of_program rewrite;
      target_loc = Program.length spec.Sandbox.Spec.program;
      rewrite_loc = Program.length rewrite;
      bitwise;
      ok;
    }
  in
  let rows =
    [
      eval_kernel "k*v" Kernels.Aek_kernels.scale_spec ~eta:0L ~ok:true;
      eval_kernel "<v1,v2>" Kernels.Aek_kernels.dot_spec ~eta:0L ~ok:true;
      eval_kernel "v1+v2" Kernels.Aek_kernels.add_spec ~eta:0L ~ok:true;
      eval_kernel "D(v1,v2)" Kernels.Aek_kernels.delta_spec ~eta:16L ~ok:true;
    ]
  in
  (* Δ′: the over-aggressive rewrite (unbounded eta) *)
  let dp = Kernels.Aek_kernels.delta_prime in
  let rows =
    rows
    @ [
        {
          name = "D'(v1,v2)";
          target_lat =
            Latency.of_program Kernels.Aek_kernels.delta_spec.Sandbox.Spec.program;
          rewrite_lat = Latency.of_program dp;
          target_loc =
            Program.length Kernels.Aek_kernels.delta_spec.Sandbox.Spec.program;
          rewrite_loc = Program.length dp;
          bitwise = false;
          ok = false;
        };
      ]
  in
  Printf.printf "%-10s %8s %8s %6s %6s %9s %8s %4s\n" "kernel" "lat(T)"
    "lat(R)" "LOC(T)" "LOC(R)" "speedup" "bitwise" "OK";
  List.iter
    (fun r ->
      Printf.printf "%-10s %8d %8d %6d %6d %8.1f%% %8b %4s\n" r.name
        r.target_lat r.rewrite_lat r.target_loc r.rewrite_loc
        (100. *. (float_of_int r.target_lat /. float_of_int r.rewrite_lat -. 1.))
        r.bitwise
        (if r.ok then "yes" else "no"))
    rows

let run () =
  Util.heading "Figures 6-8 — aek ray tracer vector kernels";
  run_fig6 ();
  run_fig7 ();
  run_fig8 ()

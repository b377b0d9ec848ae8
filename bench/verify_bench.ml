(* Static-verification bench: run the three-tier verifier over every
   shipped kernel/rewrite pair with a deterministic branch-and-bound
   budget, print the per-kernel table, and stream one [verify_kernel]
   event per pair into BENCH_verify.json.  The interval column is the old
   single-tier bound, so the table doubles as a record of how much the
   Taylor tier tightens it. *)

let pairs =
  List.map
    (fun (kname, spec) ->
      let label, p = Kernels.Registry.shipped_rewrite kname spec in
      (kname, spec, label, p))
    Kernels.Registry.all

let taylor =
  (* deterministic: budget by boxes, not wall clock *)
  { Verify.Bbound.default_config with Verify.Bbound.timeout_s = 0. }

let run () =
  Util.heading "Static verification: per-kernel tiers and sound bounds";
  Printf.printf "%-10s %-16s %-9s %13s %13s %8s %7s %9s\n" "kernel" "rewrite"
    "tier" "sound-ulps" "interval-ulps" "boxes" "depth" "secs";
  List.iter
    (fun (kname, spec, label, rewrite) ->
      let t0 = Unix.gettimeofday () in
      let outcome = Stoke.verify ~taylor ~eta:0L spec rewrite in
      let elapsed = Unix.gettimeofday () -. t0 in
      let sound = Verify.Verifier.sound_ulps outcome in
      let tier = Verify.Verifier.tier_name outcome in
      let interval_ulps =
        match
          Result.bind
            (Verify.Symbolic.exec_pair spec ~rewrite)
            (Verify.Interval.static_ulp_bound spec)
        with
        | Ok a -> Some a.Verify.Interval.bound_ulps
        | Error _ -> None
      in
      let boxes, depth =
        match outcome with
        | Verify.Verifier.Taylor_bound a ->
          (a.Verify.Taylor.boxes_explored, a.Verify.Taylor.depth)
        | _ -> (0, 0)
      in
      let fmt_opt = function
        | None -> "-"
        | Some x -> Printf.sprintf "%.3g" x
      in
      Printf.printf "%-10s %-16s %-9s %13s %13s %8d %7d %9.3f\n" kname label
        tier (fmt_opt sound) (fmt_opt interval_ulps) boxes depth
        elapsed;
      Obs.Sink.emit (Util.obs ()) "verify_kernel"
        [
          ("kernel", Obs.Json.String kname);
          ("rewrite", Obs.Json.String label);
          ("tier", Obs.Json.String tier);
          ( "sound_ulps",
            match sound with
            | None -> Obs.Json.Null
            | Some s -> Obs.Json.Float s );
          ( "interval_ulps",
            match interval_ulps with
            | None -> Obs.Json.Null
            | Some i -> Obs.Json.Float i );
          ("boxes_explored", Obs.Json.Int boxes);
          ("depth", Obs.Json.Int depth);
          ("elapsed_s", Obs.Json.Float elapsed);
        ])
    pairs

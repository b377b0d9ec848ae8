(* The search workload: a closed loop running one chain at a time through
   [Stoke.optimize] with the default config.  Each cycle runs exp and sin
   to their time-to-target goals and one fixed-budget run.  A pass takes
   every pool seed once per kernel, in an order drawn from the workload
   seed.  The fixed-budget runs are dealt from a deck of every (kernel,
   seed), reshuffled when used up, so two passes time each once.
   The two kernels' times to target are reported apart (exp's is several
   times sin's, so a median over both would fall between the two).
   Nothing here validates, verifies or serves. *)

let names =
  {
    Outcome.work_name = "proposals_per_s";
    work_unit = "proposals/s";
    op_name = "exp_time_to_target";
    op2_name = "sin_time_to_target";
  }

type env = {
  g : Rng.Xoshiro256.t;
  expected : Plan.expected;
  fixed : Plan.search_job array;  (** the deck of fixed-budget runs *)
  mutable next_fixed : int;
}

(* Set-up is what a search pays before its first proposal: the test set
   and the cost context (which runs the target on every test), for every
   chain a pass starts. *)
let setup ~seed expected =
  List.iter
    (fun (k : Plan.skernel) ->
      let spec = Plan.spec_of k.kname in
      let params = Search.Cost.default_params ~eta:(Ulp.of_float k.eta) in
      List.iter
        (fun s ->
          let tests = Stoke.make_tests ~seed:(Int64.of_int (s + 100)) spec in
          ignore (Search.Cost.create spec params tests : Search.Cost.t))
        Plan.chain_seeds)
    Plan.search_kernels;
  let fixed =
    List.concat_map
      (fun k -> List.map (fun seed -> Plan.Fixed { k; seed }) Plan.chain_seeds)
      Plan.search_kernels
  in
  {
    g = Rng.Xoshiro256.create (Int64.of_int seed);
    expected;
    fixed = Array.of_list fixed;
    next_fixed = 0;
  }

(* The winner, its latency and the stop reason must be the oracle's; a
   time-to-target run must also have reached its goal. *)
let check_result tally env job (r : Search.Optimizer.result) =
  let key = Plan.search_key job in
  match (List.assoc_opt key env.expected.Plan.searches, r.Search.Optimizer.best_correct) with
  | None, _ -> Tally.record tally (Error (key ^ ": no expected entry"))
  | Some _, None -> Tally.record tally (Error (key ^ ": no correct rewrite"))
  | Some (hash, latency, stop), Some p ->
    let got_hash = Plan.hash_hex p and got_lat = Latency.of_program p in
    let got_stop = Search.Control.stop_reason_to_string r.Search.Optimizer.stop_reason in
    let reached =
      match job with
      | Plan.Fixed _ -> true
      | Plan.To_target { k; _ } -> float_of_int got_lat <= Plan.target_cost k
    in
    Tally.check tally
      (got_hash = hash && got_lat = latency && got_stop = stop && reached)
      "%s: winner %s latency %d stop %s (expected %s %d %s)%s" key got_hash got_lat got_stop
      hash latency stop
      (if reached then "" else ", goal missed")

let run ~full env ~seconds tally =
  let t0 = Measure.now_ns () in
  let proposals = ref 0 and fixed_s = ref 0. in
  let exp_k, sin_k =
    match Plan.search_kernels with [ e; s ] -> (e, s) | _ -> assert false
  in
  let times = [| ref []; ref [] |] and counts = [| ref 0; ref 0 |] in
  let one job =
    let r, dt =
      Measure.timed (fun () ->
          Spans.with_ ~trace:(Spans.new_trace ()) "core.optimize" (fun () ->
              Plan.run_search job))
    in
    check_result tally env job r;
    match job with
    | Plan.Fixed _ ->
      proposals := !proposals + r.Search.Optimizer.proposals_made;
      fixed_s := !fixed_s +. dt
    | Plan.To_target { k; _ } ->
      let i = if k == exp_k then 0 else 1 in
      times.(i) := dt :: !(times.(i));
      incr counts.(i)
  in
  let mins =
    if full then
      [ (counts.(0), Measure.tail_samples); (counts.(1), Measure.tail_samples) ]
    else []
  in
  let deal () =
    if env.next_fixed = 0 then Rng.Dist.shuffle env.g env.fixed;
    let job = env.fixed.(env.next_fixed) in
    env.next_fixed <- (env.next_fixed + 1) mod Array.length env.fixed;
    job
  in
  let perm () =
    let a = Array.of_list Plan.chain_seeds in
    Rng.Dist.shuffle env.g a;
    a
  in
  while Measure.keep_going ~t0 ~seconds mins do
    let exp_seeds = perm () and sin_seeds = perm () in
    Array.iteri
      (fun i exp_seed ->
        one (Plan.To_target { k = exp_k; seed = exp_seed });
        one (Plan.To_target { k = sin_k; seed = sin_seeds.(i) });
        one (deal ()))
      exp_seeds
  done;
  {
    Outcome.work = float_of_int !proposals;
    work_s = !fixed_s;
    op = !(times.(0));
    op2 = !(times.(1));
  }

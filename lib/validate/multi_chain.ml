type config = {
  chains : int;
  proposals_per_chain : int;
  sigma : float;
  r_hat_threshold : float;
  seed : int64;
}

let default_config =
  {
    chains = 4;
    proposals_per_chain = 50_000;
    sigma = 1.0;
    r_hat_threshold = 1.1;
    seed = 13L;
  }

type verdict = {
  max_err : Ulp.t;
  max_err_input : float array;
  r_hat : float;
  mixed : bool;
  per_chain_max : Ulp.t array;
  validated : bool;
}

(* One chain: the driver's hunt with no Geweke schedule, recording the
   whole sample series for the R̂ computation. *)
let run_chain ~obs ~chain ~config ~seed errfn =
  if Obs.Sink.enabled obs then
    Obs.Sink.emit obs "chain_start"
      [
        ("chain", Obs.Json.Int chain);
        ("seed", Obs.Json.String (Int64.to_string seed));
        ("proposals", Obs.Json.Int config.proposals_per_chain);
      ];
  let ((best, _, _) as result) =
    Driver.sample ~sigma:config.sigma ~seed
      ~proposals:config.proposals_per_chain errfn
  in
  if Obs.Sink.enabled obs then
    Obs.Sink.emit obs "chain_end"
      [
        ("chain", Obs.Json.Int chain);
        ("max_err_ulps", Obs.Json.Float (Ulp.to_float best));
      ];
  result

let run ?(obs = Obs.Sink.null) ?(config = default_config) ~eta errfn =
  if config.chains < 2 then invalid_arg "Multi_chain.run: need >= 2 chains";
  (* R̂ needs at least four samples per chain; refuse before running any *)
  if config.proposals_per_chain < 4 then
    invalid_arg
      (Printf.sprintf
         "Multi_chain.run: %d proposals per chain, need >= 4 for R-hat"
         config.proposals_per_chain);
  let results =
    List.init config.chains (fun i ->
        run_chain ~obs ~chain:i ~config
          ~seed:(Int64.add config.seed (Int64.of_int i))
          errfn)
  in
  let per_chain_max = Array.of_list (List.map (fun (b, _, _) -> b) results) in
  let best, best_input =
    List.fold_left
      (fun (b, bi) (b', bi', _) ->
        if Ulp.compare b' b > 0 then (b', bi') else (b, bi))
      (let b, bi, _ = List.hd results in
       (b, bi))
      (List.tl results)
  in
  let chains = Array.of_list (List.map (fun (_, _, s) -> s) results) in
  let v = Stats.Gelman_rubin.r_hat chains in
  let mixed = Stats.Gelman_rubin.converged ~threshold:config.r_hat_threshold v in
  let verdict =
    {
      max_err = best;
      max_err_input = best_input;
      r_hat = v.Stats.Gelman_rubin.r_hat;
      mixed;
      per_chain_max;
      validated = mixed && Ulp.compare best eta <= 0;
    }
  in
  if Obs.Sink.enabled obs then
    Obs.Sink.emit obs "multi_chain_end"
      [
        ("chains", Obs.Json.Int config.chains);
        ("r_hat", Obs.Json.Float verdict.r_hat);
        ("mixed", Obs.Json.Bool verdict.mixed);
        ("max_err_ulps", Obs.Json.Float (Ulp.to_float verdict.max_err));
        ("validated", Obs.Json.Bool verdict.validated);
      ];
  verdict

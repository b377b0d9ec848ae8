let better_result (a : Optimizer.result) (b : Optimizer.result) =
  (* prefer an η-correct rewrite; among those, the lowest perf *)
  match a.Optimizer.best_correct_cost, b.Optimizer.best_correct_cost with
  | Some ca, Some cb -> if cb.Cost.perf < ca.Cost.perf then b else a
  | Some _, None -> a
  | None, Some _ -> b
  | None, None ->
    if b.Optimizer.best_overall_cost.Cost.total
       < a.Optimizer.best_overall_cost.Cost.total
    then b
    else a

let run ?domains ?obs ?(orch_obs = Obs.Sink.null) ?progress_every ?checkpoint
    ?resume ?on_chain_start ?control ~spec ~params ~tests ~config () =
  let n =
    match domains with
    | Some d -> Stdlib.max 1 d
    | None -> Stdlib.min 8 (Domain.recommended_domain_count ())
  in
  let fp = Snapshot.fingerprint ~spec ~params ~config ~tests ~domains:n in
  (match resume with
   | Some (s : Snapshot.t) when s.Snapshot.fingerprint <> fp ->
     invalid_arg
       (Printf.sprintf
          "Parallel.run: snapshot fingerprint %s does not match this run's \
           %s — the spec, cost params, search config, tests, or domain \
           count changed since the snapshot was written"
          s.Snapshot.fingerprint fp)
   | _ -> ());
  let control =
    match control with
    | Some c -> c
    | None ->
      Control.create
        ?deadline_s:config.Optimizer.deadline_s
        ~stop_when:config.Optimizer.stop_when ~chains:n ()
  in
  let resume_pub i =
    match resume with
    | Some (s : Snapshot.t) when i < Array.length s.Snapshot.chains ->
      s.Snapshot.chains.(i)
    | _ -> None
  in
  (match resume with
   | None -> ()
   | Some s ->
     Obs.Sink.emit orch_obs "resume"
       [
         ("fingerprint", Obs.Json.String fp);
         ("domains", Obs.Json.Int n);
         ("prior_elapsed_s", Obs.Json.Float s.Snapshot.elapsed_s);
         ( "chains_live",
           Obs.Json.Int
             (Array.fold_left
                (fun acc -> function
                  | Some (p : Control.chain_pub) when not p.Control.completed
                    ->
                    acc + 1
                  | _ -> acc)
                0 s.Snapshot.chains) );
       ]);
  (* Everything a chain touches — cost context, machines, and its sink —
     is created inside the chain itself, so domains share no mutable
     state (beyond the atomics in [control]) and per-domain telemetry
     cannot race.  The chain catches its own exceptions: a crash is data
     ([Error]), not control flow, so one bad chain cannot take down the
     join. *)
  let chain i =
    let sink =
      match obs with
      | None -> Obs.Sink.null
      | Some make -> make ~chain:i
    in
    Fun.protect
      ~finally:(fun () ->
        Obs.Sink.close sink;
        Control.mark_done control ~chain:i)
      (fun () ->
        try
          (match on_chain_start with Some f -> f i | None -> ());
          let ctx =
            Cost.create ~use_cache:config.Optimizer.prune
              ~engine:config.Optimizer.engine spec params tests
          in
          let cfg =
            { config with
              Optimizer.seed = Int64.add config.Optimizer.seed (Int64.of_int i)
            }
          in
          Ok
            (Optimizer.run ~obs:sink ?progress_every ~control ~chain_id:i
               ?resume:(resume_pub i) ctx cfg)
        with e ->
          let err = Printexc.to_string e in
          Obs.Sink.emit sink "chain_crash"
            [ ("chain", Obs.Json.Int i); ("error", Obs.Json.String err) ];
          Error err)
  in
  let t_start = Obs.Clock.now_ns () in
  let prior_elapsed =
    match resume with Some s -> s.Snapshot.elapsed_s | None -> 0.
  in
  let write_snapshot path =
    (* A chain that has not republished since the resume keeps its image
       from the resumed snapshot — overwriting it with [None] would lose
       its only record. *)
    let chains =
      Array.mapi
        (fun i latest ->
          match latest with Some _ -> latest | None -> resume_pub i)
        (Control.published control)
    in
    let snap =
      {
        Snapshot.version = Snapshot.current_version;
        fingerprint = fp;
        domains = n;
        stop_reason =
          Option.map Control.stop_reason_to_string
            (Control.stop_reason control);
        elapsed_s = prior_elapsed +. Obs.Clock.elapsed_s ~since:t_start;
        chains;
      }
    in
    Snapshot.write ~path snap;
    Obs.Sink.emit orch_obs "snapshot_write"
      [
        ("path", Obs.Json.String path);
        ("elapsed_s", Obs.Json.Float snap.Snapshot.elapsed_s);
        ( "chains_published",
          Obs.Json.Int
            (Array.fold_left
               (fun acc c -> if Option.is_some c then acc + 1 else acc)
               0 chains) );
      ]
  in
  let handles = Array.init n (fun i -> Domain.spawn (fun () -> chain i)) in
  (* With checkpointing on, the spawning domain doubles as the watcher:
     it naps until either the cadence elapses or every chain has marked
     itself done, then joins.  Without it, join directly — no added
     latency. *)
  (match checkpoint with
   | None -> ()
   | Some (path, every_s) ->
     let last = ref (Obs.Clock.now_ns ()) in
     while Control.finished control < n do
       Unix.sleepf 0.02;
       if Obs.Clock.elapsed_s ~since:!last >= every_s then begin
         write_snapshot path;
         last := Obs.Clock.now_ns ()
       end
     done);
  let results = Array.map Domain.join handles in
  Array.iteri
    (fun i r ->
      match r with
      | Ok _ -> ()
      | Error err ->
        Obs.Sink.emit orch_obs "chain_crash"
          [ ("chain", Obs.Json.Int i); ("error", Obs.Json.String err) ])
    results;
  (* The post-join snapshot captures the terminal state: completed chains
     are marked unresumable, and an early-stop/deadline/crash leaves an
     image to resume from. *)
  (match checkpoint with
   | Some (path, _) -> write_snapshot path
   | None -> ());
  let failed =
    Array.fold_left
      (fun acc -> function Error _ -> acc + 1 | Ok _ -> acc)
      0 results
  in
  let ok_results =
    List.filter_map
      (function Ok r -> Some r | Error _ -> None)
      (Array.to_list results)
  in
  match ok_results with
  | [] ->
    let first_err =
      Array.fold_left
        (fun acc r ->
          match acc, r with None, Error e -> Some e | _ -> acc)
        None results
    in
    failwith
      ("Parallel.run: all chains crashed; first error: "
      ^ Option.value first_err ~default:"unknown")
  | first :: rest ->
    let best = List.fold_left better_result first rest in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 ok_results in
    (* Sum per-kind move stats into fresh arrays: reusing the winning
       chain's arrays in place would corrupt that chain's result, and
       keeping them un-summed would break the accepted =
       Σ accepted_by_kind invariant that holds for a single chain. *)
    let sum_kind proj =
      Array.init 4 (fun k ->
          List.fold_left (fun acc r -> acc + (proj r).(k)) 0 ok_results)
    in
    let moves =
      {
        Optimizer.proposed =
          sum_kind (fun r -> r.Optimizer.moves.Optimizer.proposed);
        accepted_by_kind =
          sum_kind (fun r -> r.Optimizer.moves.Optimizer.accepted_by_kind);
      }
    in
    { best with
      Optimizer.proposals_made = sum (fun r -> r.Optimizer.proposals_made);
      accepted = sum (fun r -> r.Optimizer.accepted);
      evaluations = sum (fun r -> r.Optimizer.evaluations);
      tests_executed = sum (fun r -> r.Optimizer.tests_executed);
      pruned_evals = sum (fun r -> r.Optimizer.pruned_evals);
      cache_hits = sum (fun r -> r.Optimizer.cache_hits);
      elided = sum (fun r -> r.Optimizer.elided);
      minor_words =
        List.fold_left (fun acc r -> acc +. r.Optimizer.minor_words) 0. ok_results;
      engine_counters =
        List.fold_left
          (fun acc r -> Sandbox.Engine.add acc r.Optimizer.engine_counters)
          Sandbox.Engine.zero ok_results;
      static_rejects = sum (fun r -> r.Optimizer.static_rejects);
      moves;
      stop_reason =
        (match Control.stop_reason control with
         | Some r -> r
         | None -> Control.Exhausted);
      failed_chains = failed
    }

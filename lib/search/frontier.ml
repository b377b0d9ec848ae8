type check = {
  observed_err : Ulp.t;
  refuted : bool;
  mixed : bool;
  val_iterations : int;
  counterexample : float array option;
}

type validator = eta:Ulp.t -> Program.t -> check

type proof = {
  sound_ulps : float;
  boxes_explored : int;
  depth : int;
}

type prover = eta:Ulp.t -> Program.t -> proof option

type point = {
  eta : Ulp.t;
  rewrite : Program.t;
  loc : int;
  latency : int;
  speedup : float;
  validated_err : Ulp.t option;
  warm : bool;
  proposals_used : int;
  demotions : int;
}

type config = {
  search : Optimizer.config;
  warm : bool;
  warm_frac : float;
  max_demotions : int;
}

let default_config =
  {
    search = Optimizer.default_config;
    warm = true;
    warm_frac = 0.25;
    max_demotions = 2;
  }

type result = {
  points : point list;
  pareto : point list;
  total_proposals : int;
  cold_budget : int;
  demotions : int;
  tests_added : int;
  promotions : int;
}

(* ---------- Pareto set ---------- *)

let err_bound p =
  match p.validated_err with
  | Some e -> e
  | None -> p.eta

let dominates a b =
  let ec = Ulp.compare (err_bound a) (err_bound b) in
  a.latency <= b.latency && ec <= 0 && (a.latency < b.latency || ec < 0)

let pareto_insert set p =
  let beaten q =
    (* an exact (latency, err) tie also keeps the incumbent: inserting a
       duplicate pair would let two copies "survive" each other *)
    dominates q p || (q.latency = p.latency && Ulp.compare (err_bound q) (err_bound p) = 0)
  in
  if List.exists beaten set then (set, [ p ])
  else begin
    let kept, dropped = List.partition (fun q -> not (dominates p q)) set in
    (p :: kept, dropped)
  end

let pareto_of points =
  let set = List.fold_left (fun s p -> fst (pareto_insert s p)) [] points in
  List.sort (fun a b -> compare a.latency b.latency) set

(* ---------- snapshot ---------- *)

type snapshot = {
  version : int;
  fingerprint : string;
  next : int;
  carry_rng : int64 array option;
  snap_total_proposals : int;
  snap_demotions : int;
  snap_points : point list;
  extra_tests : float array list;
}

let snapshot_version = 1

let fingerprint cfg ~spec ~tests =
  (* The base digest covers spec, search config, and the base test set;
     params are pinned at η = 0 because each walk point rebuilds its own
     params from its η — the grid itself stays outside the fingerprint so
     a resumed run may extend it (completed points are prefix-checked
     structurally instead).  The literal [back:false] keeps the digest
     equal to the one builds with an optional return pass wrote, so
     their snapshots still resume. *)
  let base =
    Snapshot.fingerprint ~spec
      ~params:(Cost.default_params ~eta:0L)
      ~config:cfg.search ~tests ~domains:1
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "frontier|%s|warm:%b|frac:%h|demote:%d|back:false" base
          cfg.warm cfg.warm_frac cfg.max_demotions))

let bad = Snapshot.bad
let get = Snapshot.get
let to_int = Snapshot.to_int
let to_bool = Snapshot.to_bool

let json_of_eta (e : Ulp.t) = Obs.Json.String (Int64.to_string e)

let eta_of_json = function
  | Obs.Json.String s ->
    (try Int64.of_string s with _ -> bad "bad eta %S" s)
  | _ -> bad "expected an eta string"

let json_of_point p =
  Obs.Json.Obj
    [
      ("eta", json_of_eta p.eta);
      ("rewrite", Snapshot.json_of_program p.rewrite);
      ( "validated_err",
        match p.validated_err with
        | None -> Obs.Json.Null
        | Some e -> json_of_eta e );
      ("warm", Obs.Json.Bool p.warm);
      ("proposals_used", Obs.Json.Int p.proposals_used);
      ("demotions", Obs.Json.Int p.demotions);
    ]

let point_of_json ~target_latency j =
  let f = get j in
  let rewrite = Snapshot.program_of_json (f "rewrite") in
  let latency = Latency.of_program rewrite in
  {
    eta = eta_of_json (f "eta");
    rewrite;
    loc = Program.length rewrite;
    latency;
    speedup = float_of_int target_latency /. float_of_int (Stdlib.max 1 latency);
    validated_err =
      (match f "validated_err" with
       | Obs.Json.Null -> None
       | e -> Some (eta_of_json e));
    warm = to_bool (f "warm");
    proposals_used = to_int (f "proposals_used");
    demotions = to_int (f "demotions");
  }

let snapshot_to_json s =
  Obs.Json.Obj
    [
      ("version", Obs.Json.Int s.version);
      ("fingerprint", Obs.Json.String s.fingerprint);
      ("next", Obs.Json.Int s.next);
      ( "carry_rng",
        match s.carry_rng with
        | None -> Obs.Json.Null
        | Some r -> Snapshot.json_of_rng r );
      ("total_proposals", Obs.Json.Int s.snap_total_proposals);
      ("demotions", Obs.Json.Int s.snap_demotions);
      ("points", Obs.Json.List (List.map json_of_point s.snap_points));
      ( "extra_tests",
        Obs.Json.List
          (List.map
             (fun xs ->
               Obs.Json.List
                 (Array.to_list (Array.map (fun x -> Obs.Json.Float x) xs)))
             s.extra_tests) );
    ]

let snapshot_of_json ~spec j =
  try
    let f = get j in
    let version = to_int (f "version") in
    if version <> snapshot_version then
      bad "frontier snapshot version %d, this build reads %d" version
        snapshot_version;
    let fingerprint =
      match f "fingerprint" with
      | Obs.Json.String s -> s
      | _ -> bad "expected a fingerprint string"
    in
    let target_latency =
      Latency.of_program spec.Sandbox.Spec.program
    in
    Ok
      {
        version;
        fingerprint;
        next = to_int (f "next");
        carry_rng =
          (match f "carry_rng" with
           | Obs.Json.Null -> None
           | r -> Some (Snapshot.rng_of_json r));
        snap_total_proposals = to_int (f "total_proposals");
        snap_demotions = to_int (f "demotions");
        snap_points =
          (match f "points" with
           | Obs.Json.List l -> List.map (point_of_json ~target_latency) l
           | _ -> bad "expected a points list");
        extra_tests =
          (match f "extra_tests" with
           | Obs.Json.List l ->
             List.map
               (function
                 | Obs.Json.List xs ->
                   Array.of_list
                     (List.map
                        (fun x ->
                          match Obs.Json.to_float_opt x with
                          | Some v -> v
                          | None -> bad "bad test input")
                        xs)
                 | _ -> bad "expected a test input list")
               l
           | _ -> bad "expected an extra_tests list");
      }
  with Snapshot.Bad msg -> Error msg

let write_snapshot ~path s =
  Snapshot.atomic_write_string ~path
    (Obs.Json.to_string (snapshot_to_json s) ^ "\n")

let read_snapshot ~spec ~path =
  Snapshot.read_json ~path (snapshot_of_json ~spec)

(* ---------- the walk ---------- *)

let run ?(obs = Obs.Sink.null) ?validator ?prover ?checkpoint ?resume ~tests
    ~etas cfg spec =
  if etas = [] then invalid_arg "Frontier.run: empty eta grid";
  if not (cfg.warm_frac > 0. && cfg.warm_frac <= 1.) then
    invalid_arg
      (Printf.sprintf "Frontier.run: warm_frac %g is not in (0, 1]"
         cfg.warm_frac);
  if cfg.max_demotions < 0 then
    invalid_arg
      (Printf.sprintf "Frontier.run: max_demotions %d is negative"
         cfg.max_demotions);
  let observing = Obs.Sink.enabled obs in
  let search = cfg.search in
  let walk =
    if cfg.warm then List.sort Ulp.compare etas else etas
  in
  let walk_arr = Array.of_list walk in
  let n = Array.length walk_arr in
  let target = spec.Sandbox.Spec.program in
  let target_latency = Latency.of_program target in
  let fp =
    (* the marker keeps pre-existing snapshots readable when promotion is
       off, while refusing to resume across the promotion boundary *)
    match prover with
    | None -> fingerprint cfg ~spec ~tests
    | Some _ -> fingerprint cfg ~spec ~tests ^ "|sound-promote"
  in
  (* walk state, possibly restored from a snapshot *)
  let start_idx, carry, points_rev, total_proposals, demotions_total,
      extra_tests =
    match resume with
    | None -> (0, ref None, ref [], ref 0, ref 0, ref [])
    | Some s ->
      if s.fingerprint <> fp then
        invalid_arg "Frontier.run: snapshot fingerprint mismatch";
      if s.next > n then
        invalid_arg "Frontier.run: snapshot walked past this grid";
      List.iteri
        (fun i (p : point) ->
          if i < s.next && Ulp.compare p.eta walk_arr.(i) <> 0 then
            invalid_arg
              "Frontier.run: snapshot points are not a prefix of this grid")
        s.snap_points;
      ( s.next,
        ref s.carry_rng,
        ref (List.rev s.snap_points),
        ref s.snap_total_proposals,
        ref s.snap_demotions,
        ref (List.rev s.extra_tests) (* newest-first internally *) )
  in
  let tests_added = ref (List.length !extra_tests) in
  let current_tests () =
    Array.append tests
      (Array.of_list
         (List.rev_map (Sandbox.Spec.testcase_of_floats spec) !extra_tests))
  in
  let make_ctx ~eta =
    Cost.create ~use_cache:search.Optimizer.prune
      ~engine:search.Optimizer.engine spec
      (Cost.default_params ~eta)
      (current_tests ())
  in
  let warm_budget =
    Stdlib.max 1
      (int_of_float
         (cfg.warm_frac *. float_of_int search.Optimizer.proposals))
  in
  let cold_budget = n * search.Optimizer.proposals in
  if observing then
    Obs.Sink.emit obs "frontier_start"
      ([
         ("etas", Obs.Json.Int n);
         ("warm", Obs.Json.Bool cfg.warm);
         ("proposals_per_point", Obs.Json.Int search.Optimizer.proposals);
       ]
       (* a cold walk neither warm-starts nor demotes *)
       @ (if cfg.warm then
            [
              ("warm_budget", Obs.Json.Int warm_budget);
              ("max_demotions", Obs.Json.Int cfg.max_demotions);
            ]
          else [])
       @ [
           ("validating", Obs.Json.Bool (Option.is_some validator));
           ("resumed_points", Obs.Json.Int start_idx);
         ]);
  let emit_point (p : point) =
    if observing then
      Obs.Sink.emit obs "frontier_point"
        [
          ("eta", Obs.Json.String (Ulp.to_string p.eta));
          ("warm", Obs.Json.Bool p.warm);
          ("loc", Obs.Json.Int p.loc);
          ("latency", Obs.Json.Int p.latency);
          ("speedup", Obs.Json.Float p.speedup);
          ( "validated_err_ulps",
            match p.validated_err with
            | None -> Obs.Json.Null
            | Some e -> Obs.Json.Float (Ulp.to_float e) );
          ("proposals_used", Obs.Json.Int p.proposals_used);
          ("demotions", Obs.Json.Int p.demotions);
        ]
  in
  let promotions = ref 0 in
  (* A sound static proof of η-closeness settles the point without
     spending any MCMC validation budget; the certified bound stands in
     for the validated error (rounded up to stay a bound). *)
  let try_prove ~eta rewrite =
    match prover with
    | None -> None
    | Some pv ->
      (match pv ~eta rewrite with
       | None -> None
       | Some pr ->
         incr promotions;
         if observing then
           Obs.Sink.emit obs "sound_promotion"
             [
               ("eta", Obs.Json.String (Ulp.to_string eta));
               ("sound_ulps", Obs.Json.Float pr.sound_ulps);
               ("boxes_explored", Obs.Json.Int pr.boxes_explored);
               ("depth", Obs.Json.Int pr.depth);
             ];
         Some (Ulp.of_float (Float.ceil pr.sound_ulps)))
  in
  let pareto = ref (pareto_of (List.rev !points_rev)) in
  let promote (p : point) =
    let set, dropped = pareto_insert !pareto p in
    pareto := set;
    if observing then
      Obs.Sink.emit obs "frontier_promote"
        [
          ("eta", Obs.Json.String (Ulp.to_string p.eta));
          ("latency", Obs.Json.Int p.latency);
          ("err_bound_ulps", Obs.Json.Float (Ulp.to_float (err_bound p)));
          ("pareto_size", Obs.Json.Int (List.length set));
          ("dropped", Obs.Json.Int (List.length dropped));
        ]
  in
  let mk_point ~eta ~warm ~proposals_used ~demotions ~validated_err rewrite =
    let latency = Latency.of_program rewrite in
    {
      eta;
      rewrite;
      loc = Program.length rewrite;
      latency;
      speedup =
        float_of_int target_latency /. float_of_int (Stdlib.max 1 latency);
      validated_err;
      warm;
      proposals_used;
      demotions;
    }
  in
  let settle ~idx (p : point) =
    points_rev := p :: !points_rev;
    promote p;
    emit_point p;
    match checkpoint with
    | None -> ()
    | Some path ->
      write_snapshot ~path
        {
          version = snapshot_version;
          fingerprint = fp;
          next = idx + 1;
          carry_rng = !carry;
          snap_total_proposals = !total_proposals;
          snap_demotions = !demotions_total;
          snap_points = List.rev !points_rev;
          extra_tests = List.rev !extra_tests;
        }
  in
  (* pick mirrors the historical sweep's fallback: keep the best η-correct
     rewrite only when it is no slower than the target *)
  let pick (r : Optimizer.result) =
    match r.Optimizer.best_correct with
    | Some p when Latency.of_program p <= target_latency -> p
    | _ -> target
  in
  let control_for c =
    Control.create ?deadline_s:c.Optimizer.deadline_s
      ~stop_when:c.Optimizer.stop_when ~chains:1 ()
  in
  let harvest control ~fallback =
    carry :=
      Some
        (match (Control.published control).(0) with
         | Some pub -> pub.Control.master_rng
         | None -> fallback)
  in
  if cfg.warm then begin
    (* tight-to-loose walk with warm-started chains *)
    let seed_prog = ref target in
    let seed_validated = ref (Some 0L) in
    (match List.rev !points_rev with
     | [] -> ()
     | ps ->
       let last = List.nth ps (List.length ps - 1) in
       seed_prog := last.rewrite;
       seed_validated := last.validated_err);
    (* A counterexample found at a looser η refutes more than the current
       candidate: an earlier settled point was validated against a test
       set that never contained this input, so its bound may be just as
       fictional.  Re-check every settled rewrite on the new input at its
       own η and evict the refuted ones back to the target (exact by
       construction) — hardening only later points would leave the
       frontier carrying points a known input disproves. *)
    let backprop xs =
      let tc = [| Sandbox.Spec.testcase_of_floats spec xs |] in
      let changed = ref false in
      points_rev :=
        List.map
          (fun (p : point) ->
            if Program.equal p.rewrite target then p
            else begin
              let ctx =
                Cost.create ~use_cache:false
                  ~engine:search.Optimizer.engine spec
                  (Cost.default_params ~eta:p.eta)
                  tc
              in
              if Cost.correct (Cost.eval_full ctx p.rewrite) then p
              else begin
                changed := true;
                incr demotions_total;
                if observing then
                  Obs.Sink.emit obs "frontier_backprop"
                    [
                      ("eta", Obs.Json.String (Ulp.to_string p.eta));
                      ("latency", Obs.Json.Int p.latency);
                      ( "input",
                        Obs.Json.List
                          (Array.to_list
                             (Array.map (fun x -> Obs.Json.Float x) xs)) );
                    ];
                mk_point ~eta:p.eta ~warm:p.warm
                  ~proposals_used:p.proposals_used
                  ~demotions:(p.demotions + 1) ~validated_err:(Some 0L)
                  target
              end
            end)
          !points_rev;
      if !changed then begin
        pareto := pareto_of (List.rev !points_rev);
        match !points_rev with
        | [] -> ()
        | last :: _ ->
          seed_prog := last.rewrite;
          seed_validated := last.validated_err
      end
    in
    for idx = start_idx to n - 1 do
      let eta = walk_arr.(idx) in
      let used = ref 0 in
      let point_demotions = ref 0 in
      let search_once () =
        let budget =
          match !carry with
          | None -> search.Optimizer.proposals
          | Some _ -> warm_budget
        in
        let cfg' = { search with Optimizer.proposals = budget } in
        let ctx = make_ctx ~eta in
        let r =
          match !carry with
          | None ->
            let control = control_for cfg' in
            let r = Optimizer.run ~obs ~control ctx cfg' in
            harvest control
              ~fallback:
                (Rng.Xoshiro256.state
                   (Rng.Xoshiro256.create cfg'.Optimizer.seed));
            r
          | Some state ->
            let gm = Rng.Xoshiro256.of_state state in
            let gr = Rng.Xoshiro256.split gm in
            let seed_cost = Cost.eval_full ctx !seed_prog in
            let best_correct =
              if Cost.correct seed_cost then Some !seed_prog else None
            in
            let pub =
              Optimizer.warm_pub cfg' ~rng:(Rng.Xoshiro256.state gr)
                ~master_rng:(Rng.Xoshiro256.state gm) ?best_correct
                !seed_prog
            in
            let control = control_for cfg' in
            let r =
              Optimizer.run_from ~obs ~control ~resume:pub ctx cfg'
                !seed_prog
            in
            harvest control ~fallback:(Rng.Xoshiro256.state gm);
            r
        in
        used := !used + r.Optimizer.proposals_made;
        total_proposals := !total_proposals + r.Optimizer.proposals_made;
        pick r
      in
      let rec attempt k =
        let rewrite = search_once () in
        let finish ~validated_err rewrite =
          mk_point ~eta ~warm:true ~proposals_used:!used
            ~demotions:!point_demotions ~validated_err rewrite
        in
        if Program.equal rewrite target then
          (* the target is its own rewrite: zero error by construction *)
          finish ~validated_err:(Some 0L) rewrite
        else begin
          match try_prove ~eta rewrite with
          | Some sound -> finish ~validated_err:(Some sound) rewrite
          | None ->
          match validator with
          | None -> finish ~validated_err:None rewrite
          | Some v ->
            let chk = v ~eta rewrite in
            if not chk.refuted then
              finish ~validated_err:(Some chk.observed_err) rewrite
            else begin
              incr point_demotions;
              incr demotions_total;
              if observing then
                Obs.Sink.emit obs "frontier_demote"
                  [
                    ("eta", Obs.Json.String (Ulp.to_string eta));
                    ( "err_ulps",
                      Obs.Json.Float (Ulp.to_float chk.observed_err) );
                    ("attempt", Obs.Json.Int k);
                    ( "input",
                      match chk.counterexample with
                      | None -> Obs.Json.Null
                      | Some xs ->
                        Obs.Json.List
                          (Array.to_list
                             (Array.map
                                (fun x -> Obs.Json.Float x)
                                xs)) );
                  ];
              (match chk.counterexample with
               | Some xs ->
                 extra_tests := xs :: !extra_tests;
                 incr tests_added;
                 backprop xs
               | None -> ());
              if k >= cfg.max_demotions then begin
                (* out of retries: fall back to the frontier incumbent
                   (validated within a tighter η, hence within this one),
                   or to the target when there is no such incumbent *)
                let ok_seed =
                  (not (Program.equal !seed_prog target))
                  &&
                  match !seed_validated with
                  | Some e -> Ulp.compare e eta <= 0
                  | None -> false
                in
                if ok_seed then
                  finish ~validated_err:!seed_validated !seed_prog
                else finish ~validated_err:(Some 0L) target
              end
              else attempt (k + 1)
            end
        end
      in
      let point = attempt 0 in
      settle ~idx point;
      seed_prog := point.rewrite;
      seed_validated := point.validated_err
    done
  end
  else begin
    (* cold walk: the historical per-point sweep, bit-identical winners *)
    for idx = start_idx to n - 1 do
      let eta = walk_arr.(idx) in
      let ctx = make_ctx ~eta in
      let r = Optimizer.run ~obs ctx search in
      total_proposals := !total_proposals + r.Optimizer.proposals_made;
      let rewrite = pick r in
      let validated_err =
        match try_prove ~eta rewrite with
        | Some sound -> Some sound
        | None ->
          (match validator with
           | None -> None
           | Some v ->
             let chk = v ~eta rewrite in
             Some chk.observed_err)
      in
      let point =
        mk_point ~eta ~warm:false ~proposals_used:r.Optimizer.proposals_made
          ~demotions:0 ~validated_err rewrite
      in
      settle ~idx point
    done
  end;
  let points = List.rev !points_rev in
  let pareto = pareto_of points in
  let result =
    {
      points;
      pareto;
      total_proposals = !total_proposals;
      cold_budget;
      demotions = !demotions_total;
      tests_added = !tests_added;
      promotions = !promotions;
    }
  in
  if observing then
    Obs.Sink.emit obs "frontier_end"
      [
        ("points", Obs.Json.Int (List.length points));
        ("pareto_size", Obs.Json.Int (List.length pareto));
        ("total_proposals", Obs.Json.Int result.total_proposals);
        ("cold_budget", Obs.Json.Int result.cold_budget);
        ( "saving_frac",
          Obs.Json.Float
            (if cold_budget > 0 then
               1. -. (float_of_int result.total_proposals /. float_of_int cold_budget)
             else 0.) );
        ("demotions", Obs.Json.Int result.demotions);
        ("tests_added", Obs.Json.Int result.tests_added);
        ("promotions", Obs.Json.Int result.promotions);
      ];
  result

type config = {
  proposals : int;
  strategy : Strategy.t;
  seed : int64;
  padding : int;
  restarts : int;
  trace_points : int;
  prune : bool;
  engine : Sandbox.Exec.engine;
  static_screen : bool;
  stop_when : Control.stop_policy;
  deadline_s : float option;
}

let default_config =
  {
    proposals = 200_000;
    strategy = Strategy.Mcmc { beta = 1.0 };
    seed = 1L;
    padding = 4;
    restarts = 1;
    trace_points = 60;
    prune = true;
    engine = Sandbox.Exec.Compiled;
    static_screen = true;
    stop_when = Control.Exhaust;
    deadline_s = None;
  }

type trace_entry = {
  iter : int;
  best_total : float;
  current_total : float;
}

type move_stats = {
  proposed : int array;
  accepted_by_kind : int array;
}

type result = {
  best_correct : Program.t option;
  best_correct_cost : Cost.cost option;
  best_overall : Program.t;
  best_overall_cost : Cost.cost;
  trace : trace_entry list;
  proposals_made : int;
  accepted : int;
  evaluations : int;
  tests_executed : int;
  pruned_evals : int;
  cache_hits : int;
  elided : int;
  engine_counters : Sandbox.Engine.counters;
  static_rejects : int;
  minor_words : float;
  moves : move_stats;
  stop_reason : Control.stop_reason;
  failed_chains : int;
}

(* Raised at a poll point when the control plane requests a stop; caught in
   [run_from], which returns the partial-but-valid state accumulated so
   far. *)
exception Stop_now

let kind_index = function
  | Transform.Opcode_move -> 0
  | Transform.Operand_move -> 1
  | Transform.Swap_move -> 2
  | Transform.Instruction_move -> 3

(* Logarithmically spaced checkpoints in [1, n]. *)
let checkpoints n count =
  let rec go acc i =
    if i > count then List.rev acc
    else begin
      let v =
        int_of_float
          (Float.pow (float_of_int n) (float_of_int i /. float_of_int count))
      in
      let v = Stdlib.max 1 v in
      match acc with
      | prev :: _ when prev >= v -> go ((prev + 1) :: acc) (i + 1)
      | _ -> go (v :: acc) (i + 1)
    end
  in
  go [] 1

type chain_state = {
  mutable best_correct : Program.t option;
  mutable best_correct_cost : Cost.cost option;
  mutable best_overall : Program.t;
  mutable best_overall_cost : Cost.cost;
  mutable accepted : int;
  mutable proposals_made : int;
  mutable static_rejects : int;
  mutable trace_rev : trace_entry list;
  moves : move_stats;
}

let kind_names =
  [ Transform.Opcode_move; Transform.Operand_move; Transform.Swap_move;
    Transform.Instruction_move ]

let moves_json (moves : move_stats) =
  Obs.Json.Obj
    (List.map
       (fun kind ->
         let i = kind_index kind in
         ( Transform.kind_to_string kind,
           Obs.Json.Obj
             [
               ("proposed", Obs.Json.Int moves.proposed.(i));
               ("accepted", Obs.Json.Int moves.accepted_by_kind.(i));
             ] ))
       kind_names)

(* Counter values at the start of a [run_from], so events and the returned
   result report totals for this run even when a context is reused. *)
type anchors = {
  t0 : int64;  (** {!Obs.Clock.now_ns} reading *)
  evals0 : int;
  tests0 : int;
  pruned0 : int;
  hits0 : int;
  elided0 : int;
  engine0 : Sandbox.Engine.counters;
  words0 : float;  (** {!Gc.minor_words} reading *)
}

let engine_json engine (c : Sandbox.Engine.counters) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String (Sandbox.Exec.engine_to_string engine));
      ("prepares", Obs.Json.Int c.Sandbox.Engine.prepares);
      ("runs", Obs.Json.Int c.Sandbox.Engine.runs);
      ("fallbacks", Obs.Json.Int c.Sandbox.Engine.fallbacks);
      ("respawns", Obs.Json.Int c.Sandbox.Engine.respawns);
    ]

let anchored_engine ctx anchors =
  Sandbox.Engine.sub (Cost.engine_counters ctx) anchors.engine0

let per_proposal words proposals =
  if proposals > 0 then words /. float_of_int proposals else 0.

(* Shared by the log-spaced "checkpoint" and the fixed-cadence "progress"
   events. *)
let emit_point obs name ~chain ~iter ~anchors ctx state ~current_total =
  let elapsed = Obs.Clock.elapsed_s ~since:anchors.t0 in
  let evals = Cost.evaluations ctx - anchors.evals0 in
  Obs.Sink.emit obs name
    [
      ("chain", Obs.Json.Int chain);
      ("iter", Obs.Json.Int iter);
      ("best_total", Obs.Json.Float state.best_overall_cost.Cost.total);
      ("current_total", Obs.Json.Float current_total);
      ("proposals_made", Obs.Json.Int state.proposals_made);
      ("accepted", Obs.Json.Int state.accepted);
      ("evaluations", Obs.Json.Int evals);
      ("tests_executed", Obs.Json.Int (Cost.tests_executed ctx - anchors.tests0));
      ("pruned_evals", Obs.Json.Int (Cost.pruned_evals ctx - anchors.pruned0));
      ("cache_hits", Obs.Json.Int (Cost.cache_hits ctx - anchors.hits0));
      ("elided", Obs.Json.Int (Cost.elided ctx - anchors.elided0));
      ("engine", engine_json (Cost.engine ctx) (anchored_engine ctx anchors));
      ("static_rejects", Obs.Json.Int state.static_rejects);
      ( "minor_words_per_proposal",
        Obs.Json.Float
          (per_proposal (Gc.minor_words () -. anchors.words0)
             state.proposals_made) );
      ("elapsed_s", Obs.Json.Float elapsed);
      ( "evals_per_s",
        Obs.Json.Float
          (if elapsed > 0. then float_of_int evals /. elapsed else 0.) );
    ]

let run_chain ~obs ~progress_every ~control ~chain_id ~master_rng ~restart
    ~anchors ~screen_env ctx pools config init g ?start state =
  (* On resume [start] carries the exact (padded) slot array from the
     snapshot — re-padding would change slot indices and break the RNG
     replay, so only fresh restarts pad. *)
  let cur, start_iter =
    match start with
    | Some (p, it) -> (p, it)
    | None -> (Program.with_padding config.padding (Program.instrs init), 0)
  in
  let cur_cost = ref (Cost.eval_full ctx cur) in
  let note_candidate ~notify cost =
    let improved = ref false in
    if Cost.correct cost then begin
      let better =
        match state.best_correct_cost with
        | None -> true
        | Some c -> cost.Cost.perf < c.Cost.perf
      in
      if better then begin
        state.best_correct <- Some (Program.copy cur);
        state.best_correct_cost <- Some cost;
        improved := true
      end
    end;
    if cost.Cost.total < state.best_overall_cost.Cost.total then begin
      state.best_overall <- Program.copy cur;
      state.best_overall_cost <- cost;
      improved := true
    end;
    if notify && !improved then
      Option.iter
        (fun c ->
          Control.note_best c ~correct:(Cost.correct cost)
            ~total:cost.Cost.total)
        control
  in
  (* The starting program never notifies the control plane: in optimization
     mode the start IS the target, so [First_correct] would otherwise fire
     before a single proposal.  The policy reads "first correct
     improvement". *)
  if start = None then note_candidate ~notify:false !cur_cost;
  let publish_pub c ~iter ~completed =
    Control.publish c
      {
        Control.chain = chain_id;
        seed = config.seed;
        restart;
        iter;
        completed;
        rng = Rng.Xoshiro256.state g;
        master_rng;
        cur = Program.copy cur;
        best_correct = Option.map Program.copy state.best_correct;
        best_overall = Program.copy state.best_overall;
        proposals_made = state.proposals_made;
        accepted = state.accepted;
        static_rejects = state.static_rejects;
        moves_proposed = Array.copy state.moves.proposed;
        moves_accepted = Array.copy state.moves.accepted_by_kind;
        trace_rev =
          List.map
            (fun e -> (e.iter, e.best_total, e.current_total))
            state.trace_rev;
      }
  in
  let observing = Obs.Sink.enabled obs in
  let facts = Cost.facts ctx in
  let take_back undo =
    Transform.undo cur undo;
    Facts.revert facts cur
  in
  let marks =
    ref
      (List.filter
         (fun m -> m > start_iter)
         (checkpoints config.proposals config.trace_points))
  in
  for iter = start_iter + 1 to config.proposals do
    state.proposals_made <- state.proposals_made + 1;
    (* the table describes [cur], so a move draws its slot from it *)
    (match Transform.propose ~facts g pools cur with
     | None -> ()
     | Some (kind, undo) ->
       state.moves.proposed.(kind_index kind) <-
         state.moves.proposed.(kind_index kind) + 1;
       (* The move names the slots it changed, so the slot table updates
          only those, once, for the screen, the elision check and the
          evaluation; a rejected move's undo puts their journaled
          entries back. *)
       (match undo with
        | Transform.Restore_slot (k, _) -> Facts.move facts cur k
        | Transform.Restore_swap (a, b) -> Facts.swap facts cur a b);
       if
         config.static_screen
         && Analysis.Screen.has_undef_read ~refreshed:true screen_env cur
       then begin
         (* The proposal reads a location nothing defined: reject before
            any test case runs.  The acceptance-bound RNG draw is skipped,
            so screened and unscreened searches follow different random
            streams — but each is still bit-identical across engine and
            prune settings. *)
         state.static_rejects <- state.static_rejects + 1;
         take_back undo
       end
       else begin
       (* Draw the acceptance randomness before evaluating: a proposal is
          accepted iff its total stays within [limit], so any evaluation
          provably exceeding [limit] can abort early — the prune decision
          and the accept decision are the same float comparison, which is
          what makes pruned and unpruned runs bit-identical. *)
       let limit =
         Strategy.accept_limit config.strategy g ~iter ~current:!cur_cost.Cost.total
       in
       (* Under pruning, a one-slot move that rewrites only dead
          locations, faultlessly, is priced from the current cost
          without running the tests: the total is the one a full
          evaluation would return, so the accept decision below is the
          same float comparison. *)
       let verdict =
         match undo with
         | Transform.Restore_slot (slot, old) when config.prune ->
           Cost.eval_move ~refreshed:true ~cutoff:limit ~before:!cur_cost ~slot ~old ctx
             cur
         | Transform.Restore_slot _ | Transform.Restore_swap _ ->
           Cost.eval ~refreshed:true
             ?cutoff:(if config.prune then Some limit else None)
             ctx cur
       in
       (match verdict with
        | Cost.Pruned _ -> take_back undo
        | Cost.Evaluated proposal_cost ->
          if proposal_cost.Cost.total <= limit then begin
            state.accepted <- state.accepted + 1;
            state.moves.accepted_by_kind.(kind_index kind) <-
              state.moves.accepted_by_kind.(kind_index kind) + 1;
            cur_cost := proposal_cost;
            note_candidate ~notify:true proposal_cost
          end
          else take_back undo)
       end);
    (match !marks with
     | m :: rest when iter >= m ->
       state.trace_rev <-
         {
           iter;
           best_total = state.best_overall_cost.Cost.total;
           current_total = !cur_cost.Cost.total;
         }
         :: state.trace_rev;
       marks := rest;
       if observing then
         emit_point obs "checkpoint" ~chain:restart ~iter ~anchors ctx state
           ~current_total:!cur_cost.Cost.total
     | _ -> ());
    (match progress_every with
     | Some n when observing && n > 0 && iter mod n = 0 ->
       emit_point obs "progress" ~chain:restart ~iter ~anchors ctx state
         ~current_total:!cur_cost.Cost.total
     | _ -> ());
    (* Control poll, amortized to one [land] + branch per proposal.  It
       reads no RNG, so attaching a control plane whose policy never fires
       leaves the search bit-identical. *)
    if iter land (Control.poll_interval - 1) = 0 then begin
      match control with
      | None -> ()
      | Some c ->
        publish_pub c ~iter ~completed:false;
        if Control.should_stop c then begin
          if observing then
            Obs.Sink.emit obs "early_stop"
              [
                ("chain", Obs.Json.Int chain_id);
                ("restart", Obs.Json.Int restart);
                ("iter", Obs.Json.Int iter);
                ( "reason",
                  Obs.Json.String
                    (match Control.stop_reason c with
                     | Some r -> Control.stop_reason_to_string r
                     | None -> "unknown") );
              ];
          raise Stop_now
        end
    end
  done

let run_from ?(obs = Obs.Sink.null) ?progress_every ?control ?(chain_id = 0)
    ?resume ctx config init =
  let spec = Cost.spec ctx in
  (* Before the anchors: a process builds the pools' opcode tables once
     per operand-availability mask, so counting [Pools.make] would make
     a search's minor words depend on the searches that ran before it
     in the same process. *)
  let pools = Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let anchors =
    {
      t0 = Obs.Clock.now_ns ();
      evals0 = Cost.evaluations ctx;
      tests0 = Cost.tests_executed ctx;
      pruned0 = Cost.pruned_evals ctx;
      hits0 = Cost.cache_hits ctx;
      elided0 = Cost.elided ctx;
      engine0 = Cost.engine_counters ctx;
      words0 = Gc.minor_words ();
    }
  in
  let control =
    match control with
    | Some _ as c -> c
    | None ->
      if config.stop_when <> Control.Exhaust || config.deadline_s <> None then
        Some
          (Control.create ?deadline_s:config.deadline_s
             ~stop_when:config.stop_when ~chains:(chain_id + 1) ())
      else None
  in
  let g =
    match resume with
    | Some (r : Control.chain_pub) -> Rng.Xoshiro256.of_state r.master_rng
    | None -> Rng.Xoshiro256.create config.seed
  in
  let init_cost = Cost.eval_full ctx init in
  let state =
    match resume with
    | None ->
      {
        best_correct = None;
        best_correct_cost = None;
        best_overall = Program.copy init;
        best_overall_cost = init_cost;
        accepted = 0;
        proposals_made = 0;
        static_rejects = 0;
        trace_rev = [];
        moves =
          { proposed = Array.make 4 0; accepted_by_kind = Array.make 4 0 };
      }
    | Some r ->
      (* Costs are recomputed rather than serialized: evaluation is
         deterministic, so the recomputed cost is bit-identical to the one
         observed before the snapshot (and the snapshot stays honest even
         if its writer lied). *)
      let best_correct = Option.map Program.copy r.best_correct in
      let best_correct_cost = Option.map (Cost.eval_full ctx) best_correct in
      let best_overall = Program.copy r.best_overall in
      {
        best_correct;
        best_correct_cost;
        best_overall;
        best_overall_cost = Cost.eval_full ctx best_overall;
        accepted = r.accepted;
        proposals_made = r.proposals_made;
        static_rejects = r.static_rejects;
        trace_rev =
          List.map
            (fun (iter, best_total, current_total) ->
              { iter; best_total; current_total })
            r.trace_rev;
        moves =
          {
            proposed = Array.copy r.moves_proposed;
            accepted_by_kind = Array.copy r.moves_accepted;
          };
      }
  in
  let observing = Obs.Sink.enabled obs in
  if observing then
    Obs.Sink.emit obs "search_start"
      [
        ("proposals", Obs.Json.Int config.proposals);
        ("strategy", Obs.Json.String (Strategy.to_string config.strategy));
        ("seed", Obs.Json.String (Int64.to_string config.seed));
        ("padding", Obs.Json.Int config.padding);
        ("restarts", Obs.Json.Int config.restarts);
        ("trace_points", Obs.Json.Int config.trace_points);
        ("engine", Obs.Json.String (Sandbox.Exec.engine_to_string (Cost.engine ctx)));
        ("static_screen", Obs.Json.Bool config.static_screen);
        ("stop_when", Obs.Json.String (Control.stop_policy_to_string config.stop_when));
        ( "deadline_s",
          match config.deadline_s with
          | None -> Obs.Json.Null
          | Some d -> Obs.Json.Float d );
        ("resumed", Obs.Json.Bool (Option.is_some resume));
        ("init_total", Obs.Json.Float init_cost.Cost.total);
      ];
  let screen_env = Analysis.Screen.env_of_spec ~facts:(Cost.facts ctx) spec in
  let restarts = Stdlib.max 1 config.restarts in
  let start_restart =
    match resume with
    | Some (r : Control.chain_pub) when not r.completed -> r.restart
    | Some _ -> restarts + 1
    | None -> 1
  in
  let stopped = ref None in
  (try
     for restart = start_restart to restarts do
       if observing then
         Obs.Sink.emit obs "chain_start" [ ("chain", Obs.Json.Int restart) ];
       let g_restart, start =
         match resume with
         | Some (r : Control.chain_pub) when restart = r.restart ->
           (* The master already paid the split for this restart before the
              snapshot; [r.rng] continues that stream mid-flight. *)
           (Rng.Xoshiro256.of_state r.rng, Some (Program.copy r.cur, r.iter))
         | _ -> (Rng.Xoshiro256.split g, None)
       in
       run_chain ~obs ~progress_every ~control ~chain_id
         ~master_rng:(Rng.Xoshiro256.state g) ~restart ~anchors ~screen_env
         ctx pools config init g_restart ?start state
     done;
     (* Budget exhausted: publish a terminal record so a checkpoint written
        after this point marks the chain as not-resumable. *)
     Option.iter
       (fun c ->
         let gs = Rng.Xoshiro256.state g in
         Control.publish c
           {
             Control.chain = chain_id;
             seed = config.seed;
             restart = restarts;
             iter = config.proposals;
             completed = true;
             rng = gs;
             master_rng = gs;
             cur = Program.copy state.best_overall;
             best_correct = Option.map Program.copy state.best_correct;
             best_overall = Program.copy state.best_overall;
             proposals_made = state.proposals_made;
             accepted = state.accepted;
             static_rejects = state.static_rejects;
             moves_proposed = Array.copy state.moves.proposed;
             moves_accepted = Array.copy state.moves.accepted_by_kind;
             trace_rev =
               List.map
                 (fun e -> (e.iter, e.best_total, e.current_total))
                 state.trace_rev;
           })
       control
   with Stop_now ->
     stopped :=
       Option.bind control Control.stop_reason);
  let stop_reason = Option.value !stopped ~default:Control.Exhausted in
  let live_out = Sandbox.Spec.live_out_set spec in
  let best_correct =
    Option.map (fun p -> Liveness.dce p ~live_out) state.best_correct
  in
  (* DCE can only remove instructions with no live effect, but re-evaluate
     to keep the reported cost honest. *)
  let best_correct, best_correct_cost =
    match best_correct with
    | None -> (None, None)
    | Some p ->
      let c = Cost.eval_full ctx p in
      if Cost.correct c then (Some p, Some c)
      else (state.best_correct, state.best_correct_cost)
  in
  let result =
    {
      best_correct;
      best_correct_cost;
      best_overall = state.best_overall;
      best_overall_cost = state.best_overall_cost;
      trace = List.rev state.trace_rev;
      proposals_made = state.proposals_made;
      accepted = state.accepted;
      (* Counters are anchored: they count THIS run's work, matching the
         telemetry, even when the cost context is reused across runs. *)
      evaluations = Cost.evaluations ctx - anchors.evals0;
      tests_executed = Cost.tests_executed ctx - anchors.tests0;
      pruned_evals = Cost.pruned_evals ctx - anchors.pruned0;
      cache_hits = Cost.cache_hits ctx - anchors.hits0;
      elided = Cost.elided ctx - anchors.elided0;
      engine_counters = anchored_engine ctx anchors;
      static_rejects = state.static_rejects;
      minor_words = Gc.minor_words () -. anchors.words0;
      moves = state.moves;
      stop_reason;
      failed_chains = 0;
    }
  in
  if observing then begin
    let elapsed = Obs.Clock.elapsed_s ~since:anchors.t0 in
    Obs.Sink.emit obs "search_end"
      [
        ("best_correct", Obs.Json.Bool (Option.is_some result.best_correct));
        ( "best_correct_perf",
          match result.best_correct_cost with
          | None -> Obs.Json.Null
          | Some c -> Obs.Json.Float c.Cost.perf );
        ( "best_correct_loc",
          match result.best_correct with
          | None -> Obs.Json.Null
          | Some p -> Obs.Json.Int (Program.length p) );
        ("best_overall_total", Obs.Json.Float result.best_overall_cost.Cost.total);
        ("proposals_made", Obs.Json.Int result.proposals_made);
        ("accepted", Obs.Json.Int result.accepted);
        ( "acceptance_rate",
          Obs.Json.Float
            (if result.proposals_made = 0 then 0.
             else float_of_int result.accepted /. float_of_int result.proposals_made)
        );
        ("evaluations", Obs.Json.Int result.evaluations);
        ("tests_executed", Obs.Json.Int result.tests_executed);
        ("pruned_evals", Obs.Json.Int result.pruned_evals);
        ("cache_hits", Obs.Json.Int result.cache_hits);
        ("elided", Obs.Json.Int result.elided);
        ("engine", engine_json (Cost.engine ctx) result.engine_counters);
        ("static_rejects", Obs.Json.Int result.static_rejects);
        ( "minor_words_per_proposal",
          Obs.Json.Float
            (per_proposal result.minor_words result.proposals_made) );
        ( "stop_reason",
          Obs.Json.String (Control.stop_reason_to_string result.stop_reason) );
        ("elapsed_s", Obs.Json.Float elapsed);
        ( "evals_per_s",
          Obs.Json.Float
            (if elapsed > 0. then
               float_of_int result.evaluations /. elapsed
             else 0.) );
        ("moves", moves_json result.moves);
      ]
  end;
  result

let warm_pub config ~rng ~master_rng ?best_correct init =
  {
    Control.chain = 0;
    seed = config.seed;
    restart = 1;
    iter = 0;
    completed = false;
    rng;
    master_rng;
    cur = Program.with_padding config.padding (Program.instrs init);
    best_correct = Option.map Program.copy best_correct;
    best_overall = Program.copy init;
    proposals_made = 0;
    accepted = 0;
    static_rejects = 0;
    moves_proposed = Array.make 4 0;
    moves_accepted = Array.make 4 0;
    trace_rev = [];
  }

let run ?obs ?progress_every ?control ?chain_id ?resume ctx config =
  run_from ?obs ?progress_every ?control ?chain_id ?resume ctx config
    (Cost.spec ctx).Sandbox.Spec.program

let synthesize ?obs ?progress_every ctx config ~slots =
  if slots <= 0 then invalid_arg "Optimizer.synthesize: need positive slots";
  (* the chain pads its starting program, so an empty program with padding
     [slots] gives exactly [slots] free slots *)
  run_from ?obs ?progress_every ctx
    { config with padding = slots }
    (Program.of_instrs [])

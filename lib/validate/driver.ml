type config = {
  max_proposals : int;
  min_samples : int;
  check_every : int;
  z_threshold : float;
  sigma : float;
  seed : int64;
  trace_points : int;
}

let default_config =
  {
    max_proposals = 2_000_000;
    min_samples = 100_000;
    check_every = 50_000;
    z_threshold = 0.5;
    sigma = 1.0;
    seed = 7L;
    trace_points = 40;
  }

type trace_entry = {
  iter : int;
  best_err : float;
}

type verdict = {
  max_err : Ulp.t;
  max_err_input : float array;
  validated : bool;
  mixed : bool;
  geweke_z : float;
  iterations : int;
  trace : trace_entry list;
}

(* Theorem 1 wants samples drawn in proportion to the error value, so the
   Metropolis ratio for the (unnormalized) density err(·)+1 is
   (err* + 1)/(err + 1).  The +1 keeps the chain alive on zero-error
   plateaus. *)
let density e = e +. 1.

type accept_rule =
  | A_mcmc
  | A_hill
  | A_anneal
  | A_random

let checkpoints n count =
  let rec go acc i =
    if i > count then List.rev acc
    else begin
      let v =
        Stdlib.max 1
          (int_of_float
             (Float.pow (float_of_int n) (float_of_int i /. float_of_int count)))
      in
      match acc with
      | prev :: _ when prev >= v -> go ((prev + 1) :: acc) (i + 1)
      | _ -> go (v :: acc) (i + 1)
    end
  in
  go [] 1

let rule_name = function
  | A_mcmc -> "mcmc"
  | A_hill -> "hill"
  | A_anneal -> "anneal"
  | A_random -> "rand"

(* The sample history backing the Geweke checks:
   a flat growable array, so each check reads a prefix in O(n) instead of
   rebuilding the whole chain from a reversed list (O(n²) over the run). *)
type history = {
  mutable samples : float array;
  mutable n_samples : int;
  mutable last_z : float;  (** the most recent Z; infinity before any *)
  mutable last_check : int;
      (** iteration of the most recent check, so the end-of-budget
          fallback can tell whether the periodic schedule already checked
          the final chain (a run ending exactly on a [check_every]
          boundary would otherwise double-check and double-emit) *)
}

(* A finished hunt's sample buffer, lent to the next hunt.  A fresh
   history doubles its way up from 1024 floats, and those arrays, too big
   for the minor heap, are nearly all the major-heap allocation of a hunt
   whose samples allocate a few words each: with few minor collections
   during the hunt to pace the major GC, the work they cause falls on
   whatever runs next.  A buffer above [max_lent] floats (1 MB) is left
   to the GC, so a process keeps at most one, that small.  The exchange
   makes each buffer one hunt's alone, on any domain or thread. *)
let lent = Atomic.make [||]
let max_lent = 1 lsl 17

let history () =
  let samples =
    match Atomic.exchange lent [||] with
    | [||] -> Array.make 1024 0.
    | samples -> samples
  in
  { samples; n_samples = 0; last_z = Float.infinity; last_check = 0 }

(* Only once nothing reads [h] any more. *)
let release h =
  if Array.length h.samples <= max_lent then Atomic.set lent h.samples

let[@inline] push_sample h x =
  if h.n_samples = Array.length h.samples then begin
    let bigger = Array.make (2 * Array.length h.samples) 0. in
    Array.blit h.samples 0 bigger 0 h.n_samples;
    h.samples <- bigger
  end;
  h.samples.(h.n_samples) <- x;
  h.n_samples <- h.n_samples + 1

(* The periodic schedule: every [check_every] iterations once the chain
   holds [min_samples]. *)
let check_due config h ~iter =
  h.n_samples >= config.min_samples && iter mod config.check_every = 0

(* The final mixing check, for runs whose budget ended before the
   periodic schedule fired.  Gated on the configured [min_samples] (not a
   hardcoded count): a run whose budget never reached the sample floor
   must not claim convergence from an undersized chain.  The extra
   [>= 20] floor covers configs with a tiny [min_samples] —
   [Geweke.z_statistic] needs at least 20 points.  Skipped when the
   periodic schedule already checked at the final iteration — the chain
   has not grown since, so re-checking would only duplicate the "geweke"
   event. *)
let final_check_due config h ~iterations =
  h.n_samples >= config.min_samples && h.n_samples >= 20
  && h.last_check <> iterations

(* One Geweke check of the chain so far: records the Z, emits the
   "geweke" event, and says whether the chain mixed. *)
let geweke_check obs config h ~iter =
  let v = Stats.Geweke.z_statistic ~len:h.n_samples h.samples in
  h.last_z <- v.Stats.Geweke.z;
  h.last_check <- iter;
  let converged = Stats.Geweke.converged ~threshold:config.z_threshold v in
  if Obs.Sink.enabled obs then
    Obs.Sink.emit obs "geweke"
      [
        ("iter", Obs.Json.Int iter);
        ("z", Obs.Json.Float v.Stats.Geweke.z);
        ("n_samples", Obs.Json.Int h.n_samples);
        ("converged", Obs.Json.Bool converged);
      ];
  converged

(* The sample loop's arithmetic, here so that nothing it returns is
   boxed: under the dev profile's [-opaque] a float or an [int64]
   crossing a module boundary is.  [uniform g] is
   [Rng.Dist.float g 1.0]'s draw, [ulp_to_float] is {!Ulp.to_float}, and
   [ulp_above] is [Ulp.compare a b > 0]. *)
let[@inline] uniform g = Int.to_float (Rng.Xoshiro256.next_top53 g) /. 0x1p53

let[@inline] ulp_to_float u =
  if Int64.compare u 0L >= 0 then Int64.to_float u
  else Int64.to_float u +. 0x1p64

let[@inline] ulp_above a b = Int64.unsigned_compare a b > 0

(* The one max-error hunt every entry point drives: Metropolis (or an
   alternate acceptance rule) over inputs of the error function, tracking
   the largest exact error seen, until Geweke says the chain mixed or the
   budget runs out.  With [refute] the hunt also stops the moment the
   observed error clears η: the bound cannot shrink, so a frontier
   demoting the candidate needs only the counterexample, not a tight
   bound.  Returns the verdict and the chain's error series.

   The error function is a pure function of the input, so a candidate
   whose every coordinate kept its bits ({!Proposal.step_into} says
   [false]) is the current point and is not run: its error equals the
   current one, which every rule accepts without a draw, and the largest
   error seen already covers it.  The RNG stream, the chain and the
   verdict are those of running it. *)
let hunt ~rule ~refute ~obs ~config ~eta errfn =
  let observing = Obs.Sink.enabled obs in
  let t0 = Obs.Clock.now_ns () in
  if observing then
    Obs.Sink.emit obs "validate_start"
      [
        ( "rule",
          Obs.Json.String
            (if refute then "mcmc-incremental" else rule_name rule) );
        ("max_proposals", Obs.Json.Int config.max_proposals);
        ("min_samples", Obs.Json.Int config.min_samples);
        ("check_every", Obs.Json.Int config.check_every);
        ("z_threshold", Obs.Json.Float config.z_threshold);
        ("sigma", Obs.Json.Float config.sigma);
        ("seed", Obs.Json.String (Int64.to_string config.seed));
        ("eta", Obs.Json.Float (Ulp.to_float eta));
      ];
  let g = Rng.Xoshiro256.create config.seed in
  let spec = Errfn.spec errfn in
  let proposal = Proposal.create ~sigma:config.sigma spec in
  let cur = ref (Proposal.initial g proposal) in
  (* the candidate's buffer, swapped with [cur] on accept *)
  let spare = ref (Array.copy !cur) in
  (* One pair of executions serves both the accept rule (float error)
     and max tracking (exact ULP count). *)
  let count = Bytes.create 8 in
  Errfn.eval_into errfn !cur count;
  let max_err = ref (Bytes.get_int64_le count 0) in
  let cur_err = ref (ulp_to_float !max_err) in
  let max_err_input = ref (Array.copy !cur) in
  let evaluated = ref 1 in
  let h = history () in
  let mixed = ref false in
  let refuted = ref (refute && ulp_above !max_err eta) in
  let iterations = ref 0 in
  let trace = ref [] in
  let marks = ref (checkpoints config.max_proposals config.trace_points) in
  (* an initial point already above η ends a refuting hunt at once *)
  let steps = if !refuted then 0 else config.max_proposals in
  (try
     for iter = 1 to steps do
       iterations := iter;
       let moved =
         match rule with
         | A_random ->
           spare := Proposal.initial g proposal;
           true
         | A_mcmc | A_hill | A_anneal ->
           Proposal.step_into g proposal ~src:!cur ~dst:!spare
       in
       if moved then begin
         let candidate = !spare in
         Errfn.eval_into errfn candidate count;
         incr evaluated;
         let exact = Bytes.get_int64_le count 0 in
         let err = ulp_to_float exact in
         let accept =
           match rule with
           | A_random -> true
           | A_hill -> err >= !cur_err
           | A_mcmc ->
             err >= !cur_err || uniform g < density err /. density !cur_err
           | A_anneal ->
             let temp =
               Float.max 1e-6 (1.0 *. Float.pow 0.99999 (float_of_int iter))
             in
             err >= !cur_err
             || uniform g < Float.pow (density err /. density !cur_err) (1. /. temp)
         in
         if accept then begin
           spare := !cur;
           cur := candidate;
           cur_err := err
         end;
         if ulp_above exact !max_err then begin
           max_err := exact;
           max_err_input := Array.copy candidate;
           if observing then
             Obs.Sink.emit obs "val_new_max"
               [
                 ("iter", Obs.Json.Int iter);
                 ("err_ulps", Obs.Json.Float (Ulp.to_float exact));
                 ( "input",
                   Obs.Json.List
                     (Array.to_list
                        (Array.map (fun x -> Obs.Json.Float x) candidate)) );
               ];
           if refute && ulp_above exact eta then begin
             refuted := true;
             raise Exit
           end
         end
       end;
       push_sample h !cur_err;
       (match !marks with
        | m :: rest when iter >= m ->
          trace := { iter; best_err = Ulp.to_float !max_err } :: !trace;
          marks := rest;
          if observing then
            Obs.Sink.emit obs "val_checkpoint"
              [
                ("iter", Obs.Json.Int iter);
                ("best_err", Obs.Json.Float (Ulp.to_float !max_err));
                ( "elapsed_s",
                  Obs.Json.Float (Obs.Clock.elapsed_s ~since:t0) );
              ]
        | _ -> ());
       if check_due config h ~iter && geweke_check obs config h ~iter then begin
         mixed := true;
         raise Exit
       end
     done
   with Exit -> ());
  if
    (not (!mixed || !refuted))
    && final_check_due config h ~iterations:!iterations
    && geweke_check obs config h ~iter:!iterations
  then mixed := true;
  let verdict =
    {
      max_err = !max_err;
      max_err_input = !max_err_input;
      validated = !mixed && Ulp.compare !max_err eta <= 0;
      mixed = !mixed;
      geweke_z = h.last_z;
      iterations = !iterations;
      trace = List.rev !trace;
    }
  in
  if observing then begin
    let elapsed = Obs.Clock.elapsed_s ~since:t0 in
    Obs.Sink.emit obs "validate_end"
      [
        ("max_err_ulps", Obs.Json.Float (Ulp.to_float verdict.max_err));
        ("validated", Obs.Json.Bool verdict.validated);
        ("mixed", Obs.Json.Bool verdict.mixed);
        ("refuted", Obs.Json.Bool !refuted);
        ("geweke_z", Obs.Json.Float verdict.geweke_z);
        ("iterations", Obs.Json.Int verdict.iterations);
        ("evaluated", Obs.Json.Int !evaluated);
        ("elapsed_s", Obs.Json.Float elapsed);
        ( "samples_per_s",
          Obs.Json.Float
            (if elapsed > 0. then float_of_int verdict.iterations /. elapsed
             else 0.) );
      ]
  end;
  (verdict, h)

let run ?(obs = Obs.Sink.null) ?(config = default_config) ?(refute = false)
    ~eta errfn =
  let v, h = hunt ~rule:A_mcmc ~refute ~obs ~config ~eta errfn in
  release h;
  v

let run_strategy ?(obs = Obs.Sink.null) ?(config = default_config) ~strategy
    ~eta errfn =
  let rule =
    match strategy with
    | `Mcmc -> A_mcmc
    | `Hill -> A_hill
    | `Anneal -> A_anneal
    | `Random -> A_random
  in
  let v, h = hunt ~rule ~refute:false ~obs ~config ~eta errfn in
  release h;
  v

let sample ~sigma ~seed ~proposals errfn =
  (* a [min_samples] no chain reaches switches the Geweke schedule off *)
  let config =
    { default_config with max_proposals = proposals; min_samples = max_int;
      sigma; seed; trace_points = 0 }
  in
  let v, h =
    hunt ~rule:A_mcmc ~refute:false ~obs:Obs.Sink.null ~config
      ~eta:Ulp.max_value errfn
  in
  let samples = Array.sub h.samples 0 h.n_samples in
  release h;
  (v.max_err, v.max_err_input, samples)

type metric =
  | Ulp_metric
  | Abs_metric
  | Rel_metric

type reduction =
  | Max
  | Sum

type perf_model =
  | Sum_latency
  | Critical_path

type params = {
  eta : Ulp.t;
  k : float;
  ws : float;
  metric : metric;
  reduction : reduction;
  perf_model : perf_model;
}

let default_params ~eta =
  { eta; k = 1.0; ws = 1e18; metric = Ulp_metric; reduction = Max;
    perf_model = Sum_latency }

type cost = {
  eq : float;
  perf : float;
  total : float;
  signals : int;
  max_ulp : Ulp.t;
}

type t = {
  spec : Sandbox.Spec.t;
  params : params;
  tests : Sandbox.Testcase.t array;
  expected : Sandbox.Spec.value array array;
      (** per test: target's live-out values ([[||]] on tests where the
          target signalled) *)
  target_signalled : bool array;
      (** per test: did the target fault?  A rewrite fault on such a test
          {e matches} the target (sig term of Eq. 9/11) and costs nothing;
          finishing where the target faulted costs [ws], and vice versa. *)
  order : int array;
      (** evaluation order over [tests]: a permutation maintained
          move-to-front so that the test which most recently triggered a
          cutoff abort runs first.  Per-context, so parallel search domains
          stay independent. *)
  engine : Sandbox.Exec.engine;
  lanes : Sandbox.Engine.lanes;  (** the test set on the engine instance *)
  live_out : Liveness.Locset.t;  (** the spec's live-out locations *)
  cache : (int * Program.t * cost) option array;
      (** direct-mapped proposal cost cache keyed by {!Facts.key};
          [[||]] when disabled *)
  facts : Facts.t;
      (** per-slot facts of the program last evaluated (or screened, when
          the optimizer's screen shares it): the cache key, the
          [Sum_latency] perf term and the dead-write check come from here *)
  mutable evaluations : int;
  mutable tests_executed : int;
  mutable pruned_evals : int;
  mutable cache_hits : int;
  mutable elided : int;
}

let spec t = t.spec
let params t = t.params
let tests t = t.tests
let engine t = t.engine
let facts t = t.facts
let evaluations t = t.evaluations
let tests_executed t = t.tests_executed
let pruned_evals t = t.pruned_evals
let cache_hits t = t.cache_hits
let elided t = t.elided
let engine_counters t = Sandbox.Engine.counters t.lanes

let cache_size = 512

let create ?(use_cache = true) ?(engine = Sandbox.Exec.Compiled) ?instance
    spec params tests =
  let instance =
    match instance with
    | Some e -> e
    | None -> Sandbox.Engine.of_engine engine
  in
  let n = Array.length tests in
  (* The target's behaviour is recorded by the reference interpreter. *)
  let expected = Array.make n [||] in
  let target_signalled = Array.make n false in
  let reference =
    Sandbox.Engine.lanes
      (Sandbox.Engine.of_engine Sandbox.Exec.Interp)
      spec tests
  in
  let (_ : Sandbox.Engine.outcome) =
    Sandbox.Engine.run
      (Sandbox.Engine.prepare reference spec.Sandbox.Spec.program)
      ~order:(Array.init n Fun.id)
      ~diverges:(fun _ -> false)
      (fun i outputs ->
        (match outputs with
         | Some v -> expected.(i) <- v
         | None -> target_signalled.(i) <- true);
        false)
  in
  {
    spec;
    params;
    tests;
    expected;
    target_signalled;
    order = Array.init n Fun.id;
    engine = Sandbox.Engine.engine instance;
    lanes = Sandbox.Engine.lanes instance spec tests;
    live_out = Sandbox.Spec.live_out_set spec;
    cache = (if use_cache then Array.make cache_size None else [||]);
    facts = Facts.create ();
    evaluations = 0;
    tests_executed = 0;
    pruned_evals = 0;
    cache_hits = 0;
    elided = 0;
  }

(* Error between one pair of values, already thresholded by η, as a float. *)
let location_error params expected actual =
  let ulp_fallback () =
    Ulp.to_float (Ulp.sub_clamp (Sandbox.Spec.value_ulp expected actual) params.eta)
  in
  match params.metric with
  | Ulp_metric ->
    let d = Sandbox.Spec.value_ulp expected actual in
    Ulp.to_float (Ulp.sub_clamp d params.eta)
  | Abs_metric ->
    (* Scale into roughly ULP-comparable magnitude so η stays usable:
       1 ULP near 1.0 is ~2e-16 in binary64 (scale 2^52) but ~1.2e-7 in
       binary32 (scale 2^23). *)
    let abs_err scale a b =
      let d = Float.abs (a -. b) in
      let d = if Float.is_nan d then Float.infinity else d in
      Float.max 0. ((d *. scale) -. Ulp.to_float params.eta)
    in
    (match expected, actual with
     | Sandbox.Spec.Vf64 a, Sandbox.Spec.Vf64 b -> abs_err 0x1p52 a b
     | Sandbox.Spec.Vf32 a, Sandbox.Spec.Vf32 b -> abs_err 0x1p23 a b
     | Sandbox.Spec.Vi64 _, _ | _, Sandbox.Spec.Vi64 _ -> ulp_fallback ()
     | (Sandbox.Spec.Vf64 _ | Sandbox.Spec.Vf32 _), _ ->
       invalid_arg "Cost: mismatched value types")
  | Rel_metric ->
    (* 1 ULP of relative error is ~2^-52 in binary64, ~2^-23 in binary32. *)
    let rel_err scale a b =
      if Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) then
        (* Exact match (any bit pattern, including NaN) is zero error —
           in particular when a = b = 0., where (a−b)/a is NaN and the
           old code mapped an exactly-correct value to +∞. *)
        0.
      else if a = 0. then
        (* Zero denominator: relative error is undefined, so score the
           mismatch by ULP distance instead of +∞ (this also makes
           -0. vs 0. free, as it should be). *)
        ulp_fallback ()
      else
        let d = Float.abs ((a -. b) /. a) in
        let d = if Float.is_nan d then Float.infinity else d in
        Float.max 0. ((d *. scale) -. Ulp.to_float params.eta)
    in
    (match expected, actual with
     | Sandbox.Spec.Vf64 a, Sandbox.Spec.Vf64 b -> rel_err 0x1p52 a b
     | Sandbox.Spec.Vf32 a, Sandbox.Spec.Vf32 b -> rel_err 0x1p23 a b
     | Sandbox.Spec.Vi64 _, _ | _, Sandbox.Spec.Vi64 _ -> ulp_fallback ()
     | (Sandbox.Spec.Vf64 _ | Sandbox.Spec.Vf32 _), _ ->
       invalid_arg "Cost: mismatched value types")

type pruned = {
  tests_run : int;
  eq_partial : float;
}

type verdict =
  | Evaluated of cost
  | Pruned of pruned

let move_to_front t pos =
  if pos > 0 then begin
    let ti = t.order.(pos) in
    Array.blit t.order 0 t.order 1 pos;
    t.order.(0) <- ti
  end

let cache_slot t key = key land (Array.length t.cache - 1)

(* The cache is consulted and filled under one key per evaluation. *)
let cache_find t h program =
  match t.cache.(cache_slot t h) with
  | Some (h', p, c) when h = h' && Program.equal p program -> Some c
  | _ -> None

let cache_store t h program c =
  t.cache.(cache_slot t h) <- Some (h, Program.copy program, c)

(* The perf term of the program the facts memo last refreshed. *)
let perf_of t program =
  match t.params.perf_model with
  | Sum_latency -> float_of_int (Facts.latency t.facts)
  | Critical_path -> float_of_int (Critical_path.of_program program)

type move = {
  before : cost;
  slot : int;
  old : Program.slot;
}

let eval ?cutoff ?(refreshed = false) ?move t program =
  t.evaluations <- t.evaluations + 1;
  let caching = Array.length t.cache > 0 in
  if not refreshed then Facts.refresh t.facts program;
  let h = Facts.key t.facts in
  let hit = if caching then cache_find t h program else None in
  match hit, move with
  | Some c, _ ->
    t.cache_hits <- t.cache_hits + 1;
    Evaluated c
  | None, Some m
    when Facts.dead_write t.facts ~slot:m.slot ~old:m.old ~live_out:t.live_out
    ->
    (* Every test's outputs and fault are those of the program [m.before]
       scored, so running them would rebuild its [eq], [signals] and
       [max_ulp] bit for bit — the same values in the same order under
       [Sum], whose test order is pinned — and only the perf term moves. *)
    t.elided <- t.elided + 1;
    let perf = perf_of t program in
    let c =
      { m.before with perf; total = m.before.eq +. (t.params.k *. perf) }
    in
    if caching then cache_store t h program c;
    Evaluated c
  | None, _ ->
    let params = t.params in
    let perf = perf_of t program in
    let kperf = params.k *. perf in
    (* Aborting early is sound under both reductions.  Under Max the
       running value is the exact eq over the tests scored so far.
       Under Sum every term is ≥ 0 and IEEE round-to-nearest addition is
       monotone, so each partial sum is ≤ the final one computed in the
       same order — and the evaluation order is pinned under Sum (no
       move-to-front below), so "the same order" is exactly what a full
       evaluation uses.  Either way [eq +. kperf > limit] on a prefix
       proves the full total fails the very same floating-point
       comparison the acceptance test makes, so pruned ⟺ rejected. *)
    let limit = match cutoff with Some c -> c | None -> Float.infinity in
    let eq = ref 0. in
    let signals = ref 0 in
    let max_ulp = ref Ulp.zero in
    let combine v =
      match params.reduction with
      | Max -> eq := Float.max !eq v
      | Sum -> eq := !eq +. v
    in
    (* Score one test; [true] once the running total proves rejection. *)
    let score ti outputs =
      (match outputs with
       | None ->
         incr signals;
         (* a fault only diverges when the target ran to completion *)
         if not t.target_signalled.(ti) then combine params.ws
       | Some actual ->
         if t.target_signalled.(ti) then combine params.ws
         else begin
           let test_err = ref 0. in
           Array.iteri
             (fun li e ->
               let a = actual.(li) in
               max_ulp := Ulp.max !max_ulp (Sandbox.Spec.value_ulp e a);
               test_err := !test_err +. location_error params e a)
             t.expected.(ti);
           combine !test_err
         end);
      !eq +. kperf > limit
    in
    (* Whole-batch abort: a lane that faults where the target finished
       contributes ws to eq under either reduction (all terms are ≥ 0),
       so [ws +. kperf > limit] alone proves rejection. *)
    let diverges ti = (not t.target_signalled.(ti)) && params.ws +. kperf > limit in
    let o =
      Sandbox.Engine.run
        (Sandbox.Engine.prepare t.lanes program)
        ~order:t.order ~diverges score
    in
    t.tests_executed <- t.tests_executed + o.Sandbox.Engine.runs;
    match o.Sandbox.Engine.stop with
    | Sandbox.Engine.Completed ->
      let c =
        { eq = !eq; perf; total = !eq +. kperf; signals = !signals;
          max_ulp = !max_ulp }
      in
      if caching then cache_store t h program c;
      Evaluated c
    | Sandbox.Engine.Stopped pos ->
      t.pruned_evals <- t.pruned_evals + 1;
      (* The adaptive test order is only sound where reordering cannot
         change the accumulated value: Max is order-independent, a float
         Sum is not. *)
      if params.reduction = Max then move_to_front t pos;
      Pruned { tests_run = o.Sandbox.Engine.runs; eq_partial = !eq }
    | Sandbox.Engine.Aborted ->
      t.pruned_evals <- t.pruned_evals + 1;
      Pruned { tests_run = o.Sandbox.Engine.runs; eq_partial = params.ws }

let eval_full t program =
  match eval t program with
  | Evaluated c -> c
  | Pruned _ -> assert false (* no cutoff was given *)

let correct c = c.eq = 0.

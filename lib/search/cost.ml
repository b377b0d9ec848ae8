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

(* One evaluation's running state, unboxed: the lane callback and the
   divergence test are made once per context and read it. *)
type acc = {
  f : float array;  (** [eq], [kperf], [limit] *)
  ulp : Bytes.t;  (** the running [max_ulp] *)
  mutable signals : int;
}

type t = {
  spec : Sandbox.Spec.t;
  params : params;
  tests : Sandbox.Testcase.t array;
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
      (** the slot table of the program last evaluated (or screened, when
          the optimizer's screen shares it): the cache key, the
          [Sum_latency] perf term, the dead-write check and the compiled
          engine's steps come from here *)
  acc : acc;
  score : Sandbox.Engine.score;
      (** the lane callback, over the target's recorded behaviour *)
  diverges : int -> bool;
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

(* ----- scoring raw register bits ----- *)

(* The helpers mirror the value-level definitions they name, on the bits
   a register holds at a [Spec.out_loc], so scoring boxes no float or
   int64.  They are local, as [Validate.Errfn]'s twins of [dist64],
   [dist32] and [absdiff] are, because the dev profile builds with
   [-opaque] and a call across modules boxes its int64s: [Spec.value_ulp]
   (Ulp.dist64, Ulp.dist32 of the binary32 round trip Spec.read_outputs
   makes, which quiets a signalling NaN, and the integers' absolute
   difference), [Ulp.max], [Ulp.sub_clamp] and [Ulp.to_float]. *)
let[@inline] dist64 a b =
  let oa = if a < 0L then Int64.sub Int64.min_int a else a in
  let ob = if b < 0L then Int64.sub Int64.min_int b else b in
  if oa >= ob then Int64.sub oa ob else Int64.sub ob oa

let[@inline] ordered32 b =
  let b = Int32.bits_of_float (Int32.float_of_bits b) in
  if b < 0l then Int32.sub Int32.min_int b else b

let[@inline] dist32 a b =
  let oa = ordered32 a and ob = ordered32 b in
  let d = if oa >= ob then Int32.sub oa ob else Int32.sub ob oa in
  Int64.logand (Int64.of_int32 d) 0xffff_ffffL

let[@inline] absdiff a b =
  let d = Int64.sub a b in
  if d >= 0L then d else Int64.neg d

let[@inline] ulp_max a b =
  if Int64.sub a Int64.min_int >= Int64.sub b Int64.min_int then a else b

let[@inline] ulp_to_float u =
  if u >= 0L then Int64.to_float u else Int64.to_float u +. 0x1p64

(* [Ulp.to_float (Ulp.sub_clamp d eta)] *)
let[@inline] over_eta d eta =
  if Int64.sub d Int64.min_int <= Int64.sub eta Int64.min_int then 0.
  else ulp_to_float (Int64.sub d eta)

(* The absolute and relative metrics, scaled into roughly ULP-comparable
   magnitude so η stays usable: 1 ULP near 1.0 is ~2e-16 in binary64
   (scale 2^52) but ~1.2e-7 in binary32 (scale 2^23). *)
let[@inline] abs_err scale eta_f a b =
  let d = Float.abs (a -. b) in
  let d = if Float.is_nan d then Float.infinity else d in
  Float.max 0. ((d *. scale) -. eta_f)

(* An exact match (any bit pattern, NaN included) is zero error; a zero
   expected value scores the mismatch by ULP distance instead of +inf
   (so -0. against 0. is free). *)
let[@inline] rel_err scale eta_f eta d a b =
  if Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) then 0.
  else if a = 0. then over_eta d eta
  else begin
    let r = Float.abs ((a -. b) /. a) in
    let r = if Float.is_nan r then Float.infinity else r in
    Float.max 0. ((r *. scale) -. eta_f)
  end

(* One location's error, already thresholded by η, given its distance
   [d]: [location_error] of the value-level scorer. *)
let[@inline] location_error metric eta eta_f out expected e regs d =
  match metric, out with
  | Ulp_metric, _ | _, Sandbox.Spec.Ogp _ -> over_eta d eta
  | Abs_metric, O64 o ->
    abs_err 0x1p52 eta_f
      (Int64.float_of_bits (Bytes.get_int64_le expected e))
      (Int64.float_of_bits (Bytes.get_int64_le regs o))
  | Abs_metric, O32 o ->
    abs_err 0x1p23 eta_f
      (Int32.float_of_bits (Bytes.get_int32_le expected e))
      (Int32.float_of_bits (Bytes.get_int32_le regs o))
  | Rel_metric, O64 o ->
    rel_err 0x1p52 eta_f eta d
      (Int64.float_of_bits (Bytes.get_int64_le expected e))
      (Int64.float_of_bits (Bytes.get_int64_le regs o))
  | Rel_metric, O32 o ->
    rel_err 0x1p23 eta_f eta d
      (Int32.float_of_bits (Bytes.get_int32_le expected e))
      (Int32.float_of_bits (Bytes.get_int32_le regs o))

let[@inline] combine f sum v =
  if sum then f.(0) <- f.(0) +. v else f.(0) <- Float.max f.(0) v

(* The lane callback of every evaluation: fold one test into [acc] and
   say whether the running total already proves rejection. *)
let scorer params outs expected target_signalled acc : Sandbox.Engine.score =
  let f = acc.f and ulp = acc.ulp in
  let metric = params.metric and eta = params.eta in
  let eta_f = Ulp.to_float eta and ws = params.ws in
  let nouts = Array.length outs in
  let sum = match params.reduction with Sum -> true | Max -> false in
  fun ti finished regs ->
    if not finished then begin
      acc.signals <- acc.signals + 1;
      (* a fault only diverges when the target ran to completion *)
      if not target_signalled.(ti) then combine f sum ws
    end
    else if target_signalled.(ti) then combine f sum ws
    else begin
      let err = ref 0. in
      let worst = ref (Bytes.get_int64_le ulp 0) in
      for k = 0 to nouts - 1 do
        let e = 8 * ((ti * nouts) + k) in
        let out = outs.(k) in
        let d =
          match out with
          | Sandbox.Spec.O64 o -> dist64 (Bytes.get_int64_le expected e) (Bytes.get_int64_le regs o)
          | O32 o -> dist32 (Bytes.get_int32_le expected e) (Bytes.get_int32_le regs o)
          | Ogp o -> absdiff (Bytes.get_int64_le expected e) (Bytes.get_int64_le regs o)
        in
        worst := ulp_max !worst d;
        err := !err +. location_error metric eta eta_f out expected e regs d
      done;
      Bytes.set_int64_le ulp 0 !worst;
      combine f sum !err
    end;
    f.(0) +. f.(1) > f.(2)

let create ?(use_cache = true) ?(engine = Sandbox.Exec.Compiled) ?instance
    spec params tests =
  let instance =
    match instance with
    | Some e -> e
    | None -> Sandbox.Engine.of_engine engine
  in
  let n = Array.length tests in
  let outs = Array.of_list (List.map Sandbox.Spec.out_loc spec.Sandbox.Spec.outputs) in
  let nouts = Array.length outs in
  (* The target's behaviour is recorded by the reference interpreter:
     its output bits, test [i]'s output [k] at [8 * (i * nouts + k)] as
     [Validate.Errfn] saves them, and whether it faulted.  A rewrite
     fault on a test where the target faulted {e matches} it (sig term
     of Eq. 9/11) and costs nothing; finishing where the target faulted
     costs [ws], and vice versa. *)
  let expected = Bytes.make (8 * n * nouts) '\000' in
  let target_signalled = Array.make n false in
  let reference =
    Sandbox.Engine.lanes
      (Sandbox.Engine.of_engine Sandbox.Exec.Interp)
      spec tests
  in
  let save i finished regs =
    if not finished then target_signalled.(i) <- true
    else
      Array.iteri
        (fun k out ->
          let e = 8 * ((i * nouts) + k) in
          match out with
          | Sandbox.Spec.O64 o | Ogp o -> Bytes.set_int64_le expected e (Bytes.get_int64_le regs o)
          | O32 o -> Bytes.set_int32_le expected e (Bytes.get_int32_le regs o))
        outs;
    false
  in
  (* The interpreter reads no slot table, so the reference's is left
     empty. *)
  let (_ : Sandbox.Engine.outcome) =
    Sandbox.Engine.run
      (Sandbox.Engine.prepare reference spec.Sandbox.Spec.program)
      ~order:(Array.init n Fun.id)
      ~diverges:(fun _ -> false)
      save
  in
  let acc = { f = Array.make 3 0.; ulp = Bytes.make 8 '\000'; signals = 0 } in
  let ws = params.ws in
  let lanes = Sandbox.Engine.lanes instance spec tests in
  {
    spec;
    params;
    tests;
    order = Array.init n Fun.id;
    engine = Sandbox.Engine.engine instance;
    lanes;
    live_out = Sandbox.Spec.live_out_set spec;
    cache = (if use_cache then Array.make cache_size None else [||]);
    facts = Sandbox.Engine.table lanes;
    acc;
    score = scorer params outs expected target_signalled acc;
    (* Whole-batch abort: a lane that faults where the target finished
       contributes ws to eq under either reduction (all terms are ≥ 0),
       so [ws +. kperf > limit] alone proves rejection. *)
    diverges =
      (fun ti -> (not target_signalled.(ti)) && ws +. acc.f.(1) > acc.f.(2));
    evaluations = 0;
    tests_executed = 0;
    pruned_evals = 0;
    cache_hits = 0;
    elided = 0;
  }

type pruned = {
  tests_run : int;
  eq_partial : float;
}

type verdict =
  | Evaluated of cost
  | Pruned of pruned

(* A plain loop: [Array.blit] runs the write barrier per element, even
   on an int array. *)
let move_to_front t pos =
  let order = t.order in
  if pos > 0 then begin
    let ti = order.(pos) in
    for j = pos downto 1 do
      order.(j) <- order.(j - 1)
    done;
    order.(0) <- ti
  end

let cache_slot t key = key land (Array.length t.cache - 1)

(* The cache is consulted and filled under one key per evaluation. *)
let cache_find t h program =
  match t.cache.(cache_slot t h) with
  | Some (h', p, c) when h = h' && Program.equal p program -> Some c
  | _ -> None

let cache_store t h program c =
  t.cache.(cache_slot t h) <- Some (h, Program.copy program, c)

(* The perf term of the program the facts memo last refreshed; inlined,
   so the float is not boxed. *)
let[@inline] perf_of t program =
  match t.params.perf_model with
  | Sum_latency -> float_of_int (Facts.latency t.facts)
  | Critical_path -> float_of_int (Critical_path.of_program program)

(* [eval] with its options unpacked: no cutoff is an infinite [limit],
   and no move a negative [slot] ([before] and [old] are then unread). *)
let eval_with t program ~refreshed ~limit ~before ~slot ~old =
  t.evaluations <- t.evaluations + 1;
  let caching = Array.length t.cache > 0 in
  if not refreshed then Facts.refresh t.facts program;
  let h = Facts.key t.facts in
  match if caching then cache_find t h program else None with
  | Some c ->
    t.cache_hits <- t.cache_hits + 1;
    Evaluated c
  | None
    when slot >= 0 && Facts.dead_write t.facts ~slot ~old ~live_out:t.live_out ->
    (* Every test's outputs and fault are those of the program [before]
       scored, so running them would rebuild its [eq], [signals] and
       [max_ulp] bit for bit — the same values in the same order under
       [Sum], whose test order is pinned — and only the perf term moves. *)
    t.elided <- t.elided + 1;
    let perf = perf_of t program in
    let c = { before with perf; total = before.eq +. (t.params.k *. perf) } in
    if caching then cache_store t h program c;
    Evaluated c
  | None ->
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
    let acc = t.acc in
    acc.f.(0) <- 0.;
    acc.f.(1) <- kperf;
    acc.f.(2) <- limit;
    Bytes.set_int64_le acc.ulp 0 Ulp.zero;
    acc.signals <- 0;
    let o =
      Sandbox.Engine.run
        (Sandbox.Engine.prepare t.lanes program)
        ~order:t.order ~diverges:t.diverges t.score
    in
    t.tests_executed <- t.tests_executed + o.Sandbox.Engine.runs;
    match o.Sandbox.Engine.stop with
    | Sandbox.Engine.Completed ->
      let eq = acc.f.(0) in
      let c =
        { eq; perf; total = eq +. kperf; signals = acc.signals;
          max_ulp = Bytes.get_int64_le acc.ulp 0 }
      in
      if caching then cache_store t h program c;
      Evaluated c
    | Sandbox.Engine.Stopped pos ->
      t.pruned_evals <- t.pruned_evals + 1;
      (* The adaptive test order is only sound where reordering cannot
         change the accumulated value: Max is order-independent, a float
         Sum is not. *)
      if params.reduction = Max then move_to_front t pos;
      Pruned { tests_run = o.Sandbox.Engine.runs; eq_partial = acc.f.(0) }
    | Sandbox.Engine.Aborted ->
      t.pruned_evals <- t.pruned_evals + 1;
      Pruned { tests_run = o.Sandbox.Engine.runs; eq_partial = params.ws }

(* A placeholder [before] for an evaluation without a move. *)
let no_cost =
  { eq = Float.nan; perf = Float.nan; total = Float.nan; signals = 0; max_ulp = Ulp.zero }

let eval ?cutoff ?(refreshed = false) t program =
  let limit = match cutoff with Some c -> c | None -> Float.infinity in
  eval_with t program ~refreshed ~limit ~before:no_cost ~slot:(-1) ~old:Program.Unused

let eval_move ?(refreshed = false) ~cutoff ~before ~slot ~old t program =
  eval_with t program ~refreshed ~limit:cutoff ~before ~slot ~old

let eval_full t program =
  match eval t program with
  | Evaluated c -> c
  | Pruned _ -> assert false (* no cutoff was given *)

let correct c = c.eq = 0.

(* The check workload: a closed loop over [Stoke.validate] and
   [Stoke.verify].  A pass validates every pair under every pool
   validation seed once, in an order drawn from the workload seed, and
   verifies one shipped pair (in turn) after each validation.  The pairs are the shipped pairs
   of `stoke verify --all` plus fixed-seed search winners for exp (refuted
   after mixing) and sin (exhausts the cap). *)

let names =
  {
    Outcome.work_name = "validate_samples_per_s";
    work_unit = "samples/s";
    op_name = "verdict";
    op2_name = "verify";
  }

type baseline_row = { tier : string; sound : float option }

type env = {
  g : Rng.Xoshiro256.t;
  expected : Plan.expected;
  pairs : Plan.pair array;
  baseline : (string * baseline_row) list;  (** "kernel/rewrite" → row *)
}

let load_baseline path =
  let doc = Obs.Json.of_string_exn (Measure.read_file path) in
  let rows = Option.get (Option.bind (Obs.Json.member "rows" doc) Obs.Json.to_list_opt) in
  let str k r = Option.get (Option.bind (Obs.Json.member k r) Obs.Json.to_string_opt) in
  List.map
    (fun r ->
      ( str "kernel" r ^ "/" ^ str "rewrite" r,
        {
          tier = str "tier" r;
          sound = Option.bind (Obs.Json.member "sound_ulps" r) Obs.Json.to_float_opt;
        } ))
    rows

(* Set-up is the error functions' construction (each translates the
   target and the rewrite once), for every validation a pass runs. *)
let setup ~seed ~baseline expected =
  let pairs = Array.of_list (Plan.validation_pairs expected.Plan.winners) in
  Array.iter
    (fun (p : Plan.pair) ->
      List.iter
        (fun _ ->
          ignore
            (Validate.Errfn.create (Plan.spec_of p.pkernel) ~rewrite:p.rewrite
              : Validate.Errfn.t))
        Plan.validation_seeds)
    pairs;
  {
    g = Rng.Xoshiro256.create (Int64.of_int seed);
    expected;
    pairs;
    baseline = load_baseline baseline;
  }

let tier_of = function
  | Verify.Verifier.Proved_bitwise -> "bitwise"
  | Verify.Verifier.Taylor_bound _ -> "taylor"
  | Verify.Verifier.Static_bound _ -> "interval"
  | Verify.Verifier.Refuted_bitwise | Verify.Verifier.Not_verifiable _ -> "-"

let tier_rank = function "bitwise" -> 3 | "taylor" -> 2 | "interval" -> 1 | _ -> 0

(* The regression rule `stoke verify --check-baseline` applies: no weaker
   tier, no looser sound bound (1% slack). *)
let check_verify tally env (kname, label, _) outcome =
  let id = kname ^ "/" ^ label in
  match List.assoc_opt id env.baseline with
  | None -> Tally.record tally (Error (id ^ ": not in the verify baseline"))
  | Some b ->
    let tier = tier_of outcome in
    let sound = Verify.Verifier.sound_ulps outcome in
    let bound_ok =
      match (b.sound, sound) with
      | Some bs, Some s -> s <= (bs *. 1.01) +. 1e-9
      | Some _, None -> false
      | None, _ -> true
    in
    Tally.check tally
      (tier_rank tier >= tier_rank b.tier && bound_ok)
      "%s: verify tier %s bound %s (baseline %s %s)" id tier
      (match sound with Some s -> Printf.sprintf "%.6g" s | None -> "-")
      b.tier
      (match b.sound with Some s -> Printf.sprintf "%.6g" s | None -> "-")

let check_verdict tally env p ~seed (v : Validate.Driver.verdict) =
  let key = Plan.validate_key p ~seed in
  match List.assoc_opt key env.expected.Plan.verdicts with
  | None -> Tally.record tally (Error (key ^ ": no expected entry"))
  | Some (max_err, validated, mixed, iterations) ->
    let got = Ulp.to_string v.Validate.Driver.max_err in
    Tally.check tally
      (got = max_err && v.validated = validated && v.mixed = mixed
     && v.iterations = iterations)
      "%s: max_err %s validated %b mixed %b iterations %d (expected %s %b %b %d)" key got
      v.validated v.mixed v.iterations max_err validated mixed iterations

let n_shipped = List.length Plan.shipped_pairs

let verify_pair kname rewrite =
  Stoke.verify ~taylor:Plan.taylor ~eta:Ulp.zero (Plan.spec_of kname) rewrite

let run ~full env ~seconds tally =
  let t0 = Measure.now_ns () in
  let samples = ref 0 and validate_s = ref 0. in
  let verdicts = ref [] and verifies = ref [] in
  let n = ref 0 in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun p -> List.map (fun seed -> (p, seed)) Plan.validation_seeds)
         (Array.to_list env.pairs))
  in
  let verify_one ~trace ((kname, _, rewrite) as pair) =
    let o, dt =
      Measure.timed (fun () ->
          Spans.with_ ~trace "core.verify" (fun () -> verify_pair kname rewrite))
    in
    check_verify tally env pair o;
    verifies := dt :: !verifies
  in
  let mins = if full then [ (n, Measure.tail_samples) ] else [] in
  while Measure.keep_going ~t0 ~seconds mins do
    Rng.Dist.shuffle env.g jobs;
    (* whole rounds over the shipped pairs, so every pair is timed
       equally often in a pass *)
    let rounds = (Array.length jobs + n_shipped - 1) / n_shipped in
    let vorder =
      Array.concat
        (List.init rounds (fun _ ->
             let a = Array.of_list Plan.shipped_pairs in
             Rng.Dist.shuffle env.g a;
             a))
    in
    Array.iteri
      (fun i ((p : Plan.pair), seed) ->
        let trace = Spans.new_trace () in
        let v, dt =
          Measure.timed (fun () ->
              Spans.with_ ~trace "core.validate" (fun () -> Plan.run_validate p ~seed))
        in
        check_verdict tally env p ~seed v;
        samples := !samples + v.Validate.Driver.iterations;
        validate_s := !validate_s +. dt;
        verdicts := dt :: !verdicts;
        incr n;
        verify_one ~trace vorder.(i))
      jobs;
    for i = Array.length jobs to Array.length vorder - 1 do
      verify_one ~trace:(Spans.new_trace ()) vorder.(i)
    done
  done;
  {
    Outcome.work = float_of_int !samples;
    work_s = !validate_s;
    op = !verdicts;
    op2 = !verifies;
  }

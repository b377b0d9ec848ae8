module C = Search.Cost
module S = Sandbox.Spec

let location_error (params : C.params) expected actual =
  let ulp_fallback () =
    Ulp.to_float (Ulp.sub_clamp (S.value_ulp expected actual) params.C.eta)
  in
  match params.C.metric with
  | C.Ulp_metric ->
    let d = S.value_ulp expected actual in
    Ulp.to_float (Ulp.sub_clamp d params.C.eta)
  | C.Abs_metric ->
    let abs_err scale a b =
      let d = Float.abs (a -. b) in
      let d = if Float.is_nan d then Float.infinity else d in
      Float.max 0. ((d *. scale) -. Ulp.to_float params.C.eta)
    in
    (match expected, actual with
     | S.Vf64 a, S.Vf64 b -> abs_err 0x1p52 a b
     | S.Vf32 a, S.Vf32 b -> abs_err 0x1p23 a b
     | S.Vi64 _, _ | _, S.Vi64 _ -> ulp_fallback ()
     | (S.Vf64 _ | S.Vf32 _), _ -> invalid_arg "Cost: mismatched value types")
  | C.Rel_metric ->
    let rel_err scale a b =
      if Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) then 0.
      else if a = 0. then ulp_fallback ()
      else
        let d = Float.abs ((a -. b) /. a) in
        let d = if Float.is_nan d then Float.infinity else d in
        Float.max 0. ((d *. scale) -. Ulp.to_float params.C.eta)
    in
    (match expected, actual with
     | S.Vf64 a, S.Vf64 b -> rel_err 0x1p52 a b
     | S.Vf32 a, S.Vf32 b -> rel_err 0x1p23 a b
     | S.Vi64 _, _ | _, S.Vi64 _ -> ulp_fallback ()
     | (S.Vf64 _ | S.Vf32 _), _ -> invalid_arg "Cost: mismatched value types")

let score (params : C.params) ~expected ~actual ~perf =
  let kperf = params.C.k *. perf in
  let eq = ref 0. in
  let signals = ref 0 in
  let max_ulp = ref Ulp.zero in
  let combine v =
    match params.C.reduction with
    | C.Max -> eq := Float.max !eq v
    | C.Sum -> eq := !eq +. v
  in
  Array.iteri
    (fun ti outputs ->
      let target_signalled = Option.is_none expected.(ti) in
      match outputs with
      | None ->
        incr signals;
        if not target_signalled then combine params.C.ws
      | Some actual ->
        (match expected.(ti) with
         | None -> combine params.C.ws
         | Some expected ->
           let test_err = ref 0. in
           Array.iteri
             (fun li e ->
               let a = actual.(li) in
               max_ulp := Ulp.max !max_ulp (S.value_ulp e a);
               test_err := !test_err +. location_error params e a)
             expected;
           combine !test_err))
    actual;
  { C.eq = !eq; perf; total = !eq +. kperf; signals = !signals; max_ulp = !max_ulp }

let outputs (spec : S.t) p tc =
  let m = Sandbox.Machine.create ~mem_size:spec.S.mem_size () in
  Sandbox.Testcase.apply tc m;
  match (Sandbox.Exec.run m p).Sandbox.Exec.outcome with
  | Sandbox.Exec.Finished -> Some (S.read_outputs spec m)
  | Sandbox.Exec.Faulted _ -> None

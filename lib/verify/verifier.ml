type outcome =
  | Proved_bitwise
  | Refuted_bitwise
  | Taylor_bound of Taylor.analysis
  | Static_bound of Interval.analysis
  | Not_verifiable of string

let check ?taylor spec ~rewrite ~eta =
  ignore eta;
  let numeric symbolic_reason =
    let t = Taylor.bound ?config:taylor spec ~rewrite in
    let i = Interval.static_ulp_bound spec ~rewrite in
    match t, i with
    | Ok ta, Ok ia ->
      (* The Taylor model subsumes the interval one, but take the min so
         the strongest tier never reports worse than the tier below. *)
      Taylor_bound
        { ta with
          Taylor.sound_ulps =
            Float.min ta.Taylor.sound_ulps ia.Interval.bound_ulps }
    | Ok ta, Error _ -> Taylor_bound ta
    | Error _, Ok ia -> Static_bound ia
    | Error taylor_reason, Error interval_reason ->
      (match symbolic_reason with
       | None -> Refuted_bitwise
       | Some symbolic_reason ->
         Not_verifiable
           (Printf.sprintf "symbolic: %s; taylor: %s; interval: %s"
              symbolic_reason taylor_reason interval_reason))
  in
  match Symbolic.equivalent spec ~rewrite with
  | Ok true -> Proved_bitwise
  | Ok false -> numeric None
  | Error symbolic_reason -> numeric (Some symbolic_reason)

let verified_within outcome eta =
  match outcome with
  | Proved_bitwise -> true
  | Refuted_bitwise | Not_verifiable _ -> false
  | Taylor_bound a -> Ulp.compare (Ulp.of_float a.Taylor.sound_ulps) eta <= 0
  | Static_bound r ->
    Ulp.compare (Ulp.of_float r.Interval.bound_ulps) eta <= 0

let sound_ulps = function
  | Proved_bitwise -> Some 0.
  | Refuted_bitwise | Not_verifiable _ -> None
  | Taylor_bound a -> Some a.Taylor.sound_ulps
  | Static_bound r -> Some r.Interval.bound_ulps

let tier_name = function
  | Proved_bitwise -> "bitwise"
  | Taylor_bound _ -> "taylor"
  | Static_bound _ -> "interval"
  | Refuted_bitwise | Not_verifiable _ -> "-"

let outcome_to_string = function
  | Proved_bitwise -> "proved bit-wise equivalent (uninterpreted functions)"
  | Refuted_bitwise -> "not bit-wise equivalent"
  | Taylor_bound a ->
    Printf.sprintf
      "sound Taylor bound: %.3g scaled ULPs%s (%d boxes, depth %d)"
      a.Taylor.sound_ulps
      (if a.Taylor.proved_real_equal then ", real-arithmetic equal" else "")
      a.Taylor.boxes_explored a.Taylor.depth
  | Static_bound r ->
    Printf.sprintf "static interval bound: %.1f scaled ULPs" r.Interval.bound_ulps
  | Not_verifiable reason -> "not statically verifiable (" ^ reason ^ ")"

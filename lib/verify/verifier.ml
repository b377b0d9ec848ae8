type outcome =
  | Proved_bitwise
  | Refuted_bitwise
  | Taylor_bound of Taylor.analysis
  | Static_bound of Interval.analysis
  | Not_verifiable of string

let check ?taylor spec ~rewrite ~eta =
  ignore eta;
  match Symbolic.exec_pair spec ~rewrite with
  | Error reason -> Not_verifiable ("symbolic: " ^ reason)
  | Ok pair when Symbolic.bitwise_equal pair -> Proved_bitwise
  | Ok pair ->
    let t = Taylor.bound ?config:taylor spec pair in
    let i = Interval.static_ulp_bound spec pair in
    (match t, i with
     | Ok ta, Ok ia ->
       (* The Taylor model subsumes the interval one, but take the min so
          the strongest tier never reports worse than the tier below. *)
       Taylor_bound
         { ta with
           Taylor.sound_ulps =
             Float.min ta.Taylor.sound_ulps ia.Interval.bound_ulps }
     | Ok ta, Error _ -> Taylor_bound ta
     | Error _, Ok ia -> Static_bound ia
     | Error _, Error _ -> Refuted_bitwise)

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

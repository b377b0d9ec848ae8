type verdict = {
  z : float;
  mean_a : float;
  mean_b : float;
  n : int;
}

let z_statistic ?(frac_a = 0.1) ?(frac_b = 0.5) ?len chain =
  let n = Option.value len ~default:(Array.length chain) in
  if n < 0 || n > Array.length chain then
    invalid_arg "Geweke.z_statistic: len outside the array";
  if n < 20 then invalid_arg "Geweke.z_statistic: chain too short";
  let n1 = Stdlib.max 2 (int_of_float (frac_a *. float_of_int n)) in
  let n2 = Stdlib.max 2 (int_of_float (frac_b *. float_of_int n)) in
  let mean_a = Descriptive.window_mean chain ~pos:0 ~len:n1 in
  let mean_b = Descriptive.window_mean chain ~pos:(n - n2) ~len:n2 in
  let s1 = Spectral.window_density chain ~pos:0 ~len:n1 ~mean:mean_a in
  let s2 = Spectral.window_density chain ~pos:(n - n2) ~len:n2 ~mean:mean_b in
  let denom = sqrt ((s1 /. float_of_int n1) +. (s2 /. float_of_int n2)) in
  let z = if denom > 0. then (mean_a -. mean_b) /. denom else 0. in
  { z; mean_a; mean_b; n }

let converged ?(threshold = 1.96) v = Float.abs v.z < threshold

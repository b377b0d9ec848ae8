(* Sum of the lag-[k] centred products over the window [pos, pos+len),
   in ascending [i]. *)
let lag_sum a ~pos ~len ~mean:m k =
  let acc = ref 0. in
  for i = pos to pos + len - k - 1 do
    acc := !acc +. ((a.(i) -. m) *. (a.(i + k) -. m))
  done;
  !acc

let autocovariance a k =
  let n = Array.length a in
  if k < 0 || k >= n then invalid_arg "Spectral.autocovariance: bad lag";
  lag_sum a ~pos:0 ~len:n ~mean:(Descriptive.mean a) k /. float_of_int n

(* The Bartlett sum  c0 + sum_{k=1..lag} 2 w_k c_k,  c_k the lag-[k]
   autocovariance of the window.  Four lags share one pass over the
   window, each with its own accumulator, so the adds of different lags
   overlap instead of forming one serial chain.  Each lag is still summed
   in ascending [i] from 0., divided by [len] and then weighted, and the
   weighted terms are added to the total in ascending [k] — the exact
   operation sequence of summing one lag per pass, so the result is
   bit-identical to it. *)
let window_density ?max_lag a ~pos ~len ~mean:m =
  if len < 2 then invalid_arg "Spectral.density_at_zero: need at least 2 samples";
  if pos < 0 || pos + len > Array.length a then
    invalid_arg "Spectral.window_density: window out of bounds";
  let lag =
    match max_lag with
    | None -> int_of_float (sqrt (float_of_int len))
    | Some l -> Stdlib.min l (len - 1)
  in
  let nf = float_of_int len in
  let weight k = 2. *. (1. -. (float_of_int k /. float_of_int (lag + 1))) in
  let s = ref (lag_sum a ~pos ~len ~mean:m 0 /. nf) in
  let k = ref 1 in
  while !k + 3 <= lag do
    let k0 = !k in
    let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
    (* [i] up to [last] has all four partners in the window; lag [k0 + j]
       then has [3 - j] terms left. *)
    let stop = pos + len - k0 in
    let last = stop - 4 in
    for i = pos to last do
      let x = a.(i) -. m in
      c0 := !c0 +. (x *. (a.(i + k0) -. m));
      c1 := !c1 +. (x *. (a.(i + k0 + 1) -. m));
      c2 := !c2 +. (x *. (a.(i + k0 + 2) -. m));
      c3 := !c3 +. (x *. (a.(i + k0 + 3) -. m))
    done;
    for i = last + 1 to stop - 1 do
      c0 := !c0 +. ((a.(i) -. m) *. (a.(i + k0) -. m))
    done;
    for i = last + 1 to stop - 2 do
      c1 := !c1 +. ((a.(i) -. m) *. (a.(i + k0 + 1) -. m))
    done;
    for i = last + 1 to stop - 3 do
      c2 := !c2 +. ((a.(i) -. m) *. (a.(i + k0 + 2) -. m))
    done;
    s := !s +. (weight k0 *. (!c0 /. nf));
    s := !s +. (weight (k0 + 1) *. (!c1 /. nf));
    s := !s +. (weight (k0 + 2) *. (!c2 /. nf));
    s := !s +. (weight (k0 + 3) *. (!c3 /. nf));
    k := k0 + 4
  done;
  for k = !k to lag do
    s := !s +. (weight k *. (lag_sum a ~pos ~len ~mean:m k /. nf))
  done;
  Float.max !s 1e-300

let density_at_zero ?max_lag a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Spectral.density_at_zero: need at least 2 samples";
  window_density ?max_lag a ~pos:0 ~len:n ~mean:(Descriptive.mean a)

(* The window is centred [block] samples at a time into a scratch buffer
   of at most [block + lag] floats, so a long chain needs no centred copy
   of its own. *)
let block = 4096

(* The last call's scratch, lent to the next.  A scratch of a few
   thousand floats is too big for the minor heap, and allocated afresh
   for every window it would be nearly all the major-heap allocation of
   a validation, whose samples allocate nothing: with few minor
   collections to pace the major GC, the work it caused would fall on
   whatever runs next.  A scratch above [max_lent] floats (256 KB) is
   left to the GC.  The exchange makes each scratch one call's alone, on
   any domain. *)
let lent = Atomic.make [||]
let max_lent = 1 lsl 15

let scratch n =
  let x = Atomic.exchange lent [||] in
  if Array.length x >= n then x else Array.create_float n

let release x = if Array.length x <= max_lent then Atomic.set lent x

(* Adds the lag-[k0 + j] products [x.(i) *. x.(i + k0 + j)], [j] in
   [0, 8), for [i] in [lo, hi) in ascending order, to [acc.(k0 + j)].
   The caller keeps every read inside [x]'s centred samples. *)
let lags8 x acc k0 ~lo ~hi =
  let open Array in
  let c0 = ref (unsafe_get acc k0) and c1 = ref (unsafe_get acc (k0 + 1))
  and c2 = ref (unsafe_get acc (k0 + 2)) and c3 = ref (unsafe_get acc (k0 + 3))
  and c4 = ref (unsafe_get acc (k0 + 4)) and c5 = ref (unsafe_get acc (k0 + 5))
  and c6 = ref (unsafe_get acc (k0 + 6)) and c7 = ref (unsafe_get acc (k0 + 7)) in
  for i = lo to hi - 1 do
    let xi = unsafe_get x i and j = i + k0 in
    c0 := !c0 +. (xi *. unsafe_get x j);
    c1 := !c1 +. (xi *. unsafe_get x (j + 1));
    c2 := !c2 +. (xi *. unsafe_get x (j + 2));
    c3 := !c3 +. (xi *. unsafe_get x (j + 3));
    c4 := !c4 +. (xi *. unsafe_get x (j + 4));
    c5 := !c5 +. (xi *. unsafe_get x (j + 5));
    c6 := !c6 +. (xi *. unsafe_get x (j + 6));
    c7 := !c7 +. (xi *. unsafe_get x (j + 7))
  done;
  unsafe_set acc k0 !c0;
  unsafe_set acc (k0 + 1) !c1;
  unsafe_set acc (k0 + 2) !c2;
  unsafe_set acc (k0 + 3) !c3;
  unsafe_set acc (k0 + 4) !c4;
  unsafe_set acc (k0 + 5) !c5;
  unsafe_set acc (k0 + 6) !c6;
  unsafe_set acc (k0 + 7) !c7

(* [lags8] for the one lag [k]. *)
let lag1 x acc k ~lo ~hi =
  let c = ref (Array.unsafe_get acc k) in
  for i = lo to hi - 1 do
    c := !c +. (Array.unsafe_get x i *. Array.unsafe_get x (i + k))
  done;
  Array.unsafe_set acc k !c

(* The Bartlett sum  c0 + sum_{k=1..lag} 2 w_k c_k,  c_k the lag-[k]
   autocovariance of the window.  Each block of the window is centred
   once, and eight lags share a pass over it, each with its own
   accumulator, so the adds of different lags overlap instead of forming
   one serial chain.  Each lag is still summed in ascending [i] from 0.
   (its accumulator carried from block to block) over the same centred
   products [(a.(i) -. m) *. (a.(i + k) -. m)], divided by [len] and
   then weighted, and the weighted terms are added to the total in
   ascending [k]: the exact operation sequence of summing one lag per
   pass, so the result is bit-identical to it. *)
let window_density ?max_lag a ~pos ~len ~mean:m =
  if len < 2 then invalid_arg "Spectral.window_density: need at least 2 samples";
  if pos < 0 || pos + len > Array.length a then
    invalid_arg "Spectral.window_density: window out of bounds";
  let lag =
    match max_lag with
    | None -> int_of_float (sqrt (float_of_int len))
    | Some l -> Stdlib.max 0 (Stdlib.min l (len - 1))
  in
  let acc = Array.make (lag + 1) 0. in
  let x = scratch (Stdlib.min len (block + lag)) in
  let b0 = ref 0 in
  while !b0 < len do
    (* window positions [b0, b1), centred into [x] from 0 with the [lag]
       positions after them that their products read *)
    let base = !b0 in
    let b1 = Stdlib.min len (base + block) in
    for i = 0 to Stdlib.min len (b1 + lag) - base - 1 do
      Array.unsafe_set x i (a.(pos + base + i) -. m)
    done;
    (* lag [k]'s positions end at [len - k]; a group of eight runs
       together up to the end of its last lag's, then each of the other
       seven finishes alone *)
    let hi k = Stdlib.max 0 (Stdlib.min b1 (len - k) - base) in
    let k = ref 0 in
    while !k + 7 <= lag do
      let k0 = !k in
      let shared = hi (k0 + 7) in
      lags8 x acc k0 ~lo:0 ~hi:shared;
      for k = k0 to k0 + 6 do
        lag1 x acc k ~lo:shared ~hi:(hi k)
      done;
      k := k0 + 8
    done;
    for k = !k to lag do
      lag1 x acc k ~lo:0 ~hi:(hi k)
    done;
    b0 := b1
  done;
  release x;
  let nf = float_of_int len in
  let s = ref (acc.(0) /. nf) in
  for k = 1 to lag do
    let w = 2. *. (1. -. (float_of_int k /. float_of_int (lag + 1))) in
    s := !s +. (w *. (acc.(k) /. nf))
  done;
  Float.max !s 1e-300

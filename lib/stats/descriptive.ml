let window_mean a ~pos ~len =
  if len <= 0 then invalid_arg "Descriptive.mean: empty";
  if pos < 0 || pos + len > Array.length a then
    invalid_arg "Descriptive.window_mean: window out of bounds";
  let acc = ref 0. in
  for i = pos to pos + len - 1 do
    acc := !acc +. a.(i)
  done;
  !acc /. float_of_int len

let mean a = window_mean a ~pos:0 ~len:(Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0. a in
    acc /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let min a =
  if Array.length a = 0 then invalid_arg "Descriptive.min: empty";
  Array.fold_left Float.min a.(0) a

let max a =
  if Array.length a = 0 then invalid_arg "Descriptive.max: empty";
  Array.fold_left Float.max a.(0) a

let quantile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Descriptive.quantile: empty";
  if p < 0. || p > 1. then invalid_arg "Descriptive.quantile: p outside [0,1]";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

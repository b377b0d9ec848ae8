type t = int64

let dist64 x y =
  let xx = Fp64.ordered x in
  let yy = Fp64.ordered y in
  if Int64.compare xx yy >= 0 then Int64.sub xx yy else Int64.sub yy xx

let dist32 x y =
  let xx = Fp32.ordered x in
  let yy = Fp32.ordered y in
  let d = if Int32.compare xx yy >= 0 then Int32.sub xx yy else Int32.sub yy xx in
  Int64.logand (Int64.of_int32 d) 0xffff_ffffL

let zero = 0L
let max_value = -1L

let compare = Int64.unsigned_compare

let ( <= ) a b = compare a b <= 0
let ( < ) a b = compare a b < 0

let max a b = if compare a b >= 0 then a else b

let add_sat a b =
  let s = Int64.add a b in
  if Stdlib.( < ) (compare s a) 0 then max_value else s

let sub_clamp a b = if Stdlib.( <= ) (compare a b) 0 then 0L else Int64.sub a b

let to_float u =
  if Int64.compare u 0L >= 0 then Int64.to_float u
  else Int64.to_float u +. 0x1p64

let of_float f =
  if Stdlib.( <= ) f 0. then 0L
  else if Stdlib.( >= ) f 0x1p64 then max_value
  else if Stdlib.( < ) f 0x1p63 then Int64.of_float f
  else Int64.add Int64.min_int (Int64.of_float (f -. 0x1p63))

let eta_of_float f =
  if Stdlib.( >= ) f 0. then Ok (of_float f)
  else Error (Printf.sprintf "%g is not a number >= 0" f)

let to_string u = Printf.sprintf "%Lu" u

let eta_single = 5_000_000_000L
let eta_half = 4_000_000_000_000L

let round x = Int32.float_of_bits (Int32.bits_of_float x)

let is_representable x =
  (* NaNs compare unequal to themselves but every binary32 NaN widens to a
     binary64 NaN, so treat any NaN as representable. *)
  if x <> x then true else Float.equal (round x) x

let bits x = Int32.bits_of_float x

let add a b = round (a +. b)
let sub a b = round (a -. b)
let mul a b = round (a *. b)
let div a b = round (a /. b)
let sqrt a = round (Float.sqrt a)

(* SSE min/max: if the operands are both zeros or either is NaN, the second
   source operand is returned. *)
let min a b = if a < b then a else b
let max a b = if a > b then a else b

let ordered x =
  let b = Int32.bits_of_float x in
  if Int32.compare b 0l < 0 then Int32.sub Int32.min_int b else b

let of_ordered o =
  if Int32.compare o 0l >= 0 then Int32.float_of_bits o
  else Int32.float_of_bits (Int32.sub Int32.min_int o)

let succ x =
  let o = ordered x in
  if Int32.equal o Int32.max_int then x else of_ordered (Int32.add o 1l)

let pred x =
  let o = ordered x in
  if Int32.equal o (Int32.add Int32.min_int 1l) then x else of_ordered (Int32.sub o 1l)

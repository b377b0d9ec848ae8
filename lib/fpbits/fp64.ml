type class_ =
  | Zero
  | Denormal
  | Normal
  | Infinity
  | Nan

let exponent_mask = 0x7ff0_0000_0000_0000L
let fraction_mask = 0x000f_ffff_ffff_ffffL

let sign_bit x = Int64.compare (Int64.bits_of_float x) 0L < 0

let exponent_bits x =
  Int64.to_int (Int64.shift_right_logical (Int64.logand (Int64.bits_of_float x) exponent_mask) 52)

let fraction_bits x = Int64.logand (Int64.bits_of_float x) fraction_mask

let classify x =
  match exponent_bits x, fraction_bits x with
  | 0, 0L -> Zero
  | 0, _ -> Denormal
  | 2047, 0L -> Infinity
  | 2047, _ -> Nan
  | _, _ -> Normal

let class_to_string = function
  | Zero -> "zero"
  | Denormal -> "denormal"
  | Normal -> "normal"
  | Infinity -> "infinity"
  | Nan -> "nan"

(* Figure 3 of the paper: negatives are reflected through LLONG_MIN so the
   ordered indices ascend from negative NaN up to positive NaN. *)
let ordered x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L < 0 then Int64.sub Int64.min_int b else b

let of_ordered o =
  if Int64.compare o 0L >= 0 then Int64.float_of_bits o
  else Int64.float_of_bits (Int64.sub Int64.min_int o)

(* Ordered indices range over [min_int + 1, max_int]; saturate at the NaN
   endpoints rather than wrapping around.  +∞'s ordered index is
   [exponent_mask] and −∞'s its negation: stepping outward from an
   infinity stays there, where the next index would be a NaN. *)
let succ x =
  let o = ordered x in
  if Int64.equal o Int64.max_int || Int64.equal o exponent_mask then x
  else of_ordered (Int64.add o 1L)

let pred x =
  let o = ordered x in
  if
    Int64.equal o (Int64.add Int64.min_int 1L)
    || Int64.equal o (Int64.neg exponent_mask)
  then x
  else of_ordered (Int64.sub o 1L)

let to_hex_string x = Printf.sprintf "0x%016Lx" (Int64.bits_of_float x)

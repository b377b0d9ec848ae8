(* The four state words live in one 32-byte buffer rather than in four
   mutable [int64] fields: a field store boxes its [int64], so [next]
   would allocate four times per draw; a byte store does not. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (8 * i)
let[@inline] set t i v = Bytes.set_int64_le t (8 * i) v

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  make s0 s1 s2 s3

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (Int64.logxor s2 tt);
  set t 3 (rotl s3 45);
  result

let next_top53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* The bounded draws are computed here, where [next] inlines and its
   [int64] stays unboxed: a caller in another module would receive it
   boxed. *)
let next_below t n =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

let next_bool t = not (Int64.equal (Int64.logand (next t) 1L) 0L)

let copy = Bytes.copy

let state t = [| get t 0; get t 1; get t 2; get t 3 |]

let of_state s =
  if Array.length s <> 4 then
    invalid_arg "Xoshiro256.of_state: need exactly 4 state words";
  if Array.for_all (Int64.equal 0L) s then
    invalid_arg "Xoshiro256.of_state: the all-zero state is not reachable";
  make s.(0) s.(1) s.(2) s.(3)

let split t = create (next t)

type gen = Xoshiro256.t

let bits64 = Xoshiro256.next

let int g n =
  if n <= 0 then invalid_arg "Dist.int: bound must be positive";
  (* Rejection-free modulo is biased for huge n; n here is always small
     (program lengths, pool sizes), so the bias is negligible, but we use
     the high bits which are better mixed. *)
  Xoshiro256.next_below g n

let bool = Xoshiro256.next_bool

let[@inline] float g bound =
  (* 53 uniform bits scaled into [0,1). *)
  Int.to_float (Xoshiro256.next_top53 g) /. 0x1p53 *. bound

let uniform g lo hi = lo +. float g (hi -. lo)

let normal g ~mu ~sigma =
  (* a loop, not a local recursive function: that would be a closure
     allocated on every draw *)
  let u1 = ref (float g 1.0) in
  while not (!u1 > 0.) do
    u1 := float g 1.0
  done;
  let u1 = !u1 in
  let u2 = float g 1.0 in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let choose g a =
  if Array.length a = 0 then invalid_arg "Dist.choose: empty array";
  a.(int g (Array.length a))

let choose_list g l =
  match l with
  | [] -> invalid_arg "Dist.choose_list: empty list"
  | _ :: _ -> List.nth l (int g (List.length l))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done


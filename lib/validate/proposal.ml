type t = {
  sigma : float;
  ranges : Sandbox.Spec.frange array;
  spec : Sandbox.Spec.t;
}

let create ?(sigma = 1.) spec =
  { sigma; ranges = Sandbox.Spec.input_ranges spec; spec }

let initial g t = Sandbox.Spec.random_floats g t.spec

(* [Rng.Dist.float g 1.0]'s draw, here so that it returns unboxed: under
   the dev profile's [-opaque] a float returned across modules is
   boxed. *)
let[@inline] uniform g = Int.to_float (Rng.Xoshiro256.next_top53 g) /. 0x1p53

(* [Rng.Dist.normal g ~mu:0. ~sigma]: Box–Muller over the same draws.
   For any σ above 1e-280 the draw is never ±0 ([u1 < 1] keeps [r] above
   1e-8, and the cosine of no double is zero), so leaving out
   [Dist.normal]'s [0. +.] changes no bit. *)
let[@inline] normal g sigma =
  let u1 = ref (uniform g) in
  while not (!u1 > 0.) do
    u1 := uniform g
  done;
  let u2 = uniform g in
  let r = sqrt (-2. *. log !u1) in
  sigma *. r *. cos (2. *. Float.pi *. u2)

let step_into g t ~src ~dst =
  let moved = ref false in
  for i = 0 to Array.length src - 1 do
    let r = t.ranges.(i) in
    let x = src.(i) in
    let x' = x +. normal g t.sigma in
    if x' < r.Sandbox.Spec.lo || x' > r.Sandbox.Spec.hi then dst.(i) <- x
    else begin
      dst.(i) <- x';
      if Int64.bits_of_float x' <> Int64.bits_of_float x then moved := true
    end
  done;
  !moved

let step g t xs =
  let dst = Array.make (Array.length xs) 0. in
  ignore (step_into g t ~src:xs ~dst : bool);
  dst

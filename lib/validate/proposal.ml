type t = {
  mu : float;
  sigma : float;
  ranges : Sandbox.Spec.frange array;
  spec : Sandbox.Spec.t;
}

let create ?(mu = 0.) ?(sigma = 1.) spec =
  { mu; sigma; ranges = Sandbox.Spec.input_ranges spec; spec }

let initial g t = Sandbox.Spec.random_floats g t.spec

let step_into g t ~src ~dst =
  for i = 0 to Array.length src - 1 do
    let r = t.ranges.(i) in
    let x = src.(i) in
    let x' = x +. Rng.Dist.normal g ~mu:t.mu ~sigma:t.sigma in
    dst.(i) <- (if x' < r.Sandbox.Spec.lo || x' > r.Sandbox.Spec.hi then x else x')
  done

let step g t xs =
  let dst = Array.make (Array.length xs) 0. in
  step_into g t ~src:xs ~dst;
  dst

type t = {
  x : float;
  y : float;
  z : float;
}

let make x y z = { x = Fp32.round x; y = Fp32.round y; z = Fp32.round z }

let zero = { x = 0.; y = 0.; z = 0. }

let add a b = { x = Fp32.add a.x b.x; y = Fp32.add a.y b.y; z = Fp32.add a.z b.z }
let sub a b = { x = Fp32.sub a.x b.x; y = Fp32.sub a.y b.y; z = Fp32.sub a.z b.z }

let scale a k =
  let k = Fp32.round k in
  { x = Fp32.mul a.x k; y = Fp32.mul a.y k; z = Fp32.mul a.z k }

let dot a b =
  Fp32.add (Fp32.add (Fp32.mul a.x b.x) (Fp32.mul a.y b.y)) (Fp32.mul a.z b.z)

let cross a b =
  {
    x = Fp32.sub (Fp32.mul a.y b.z) (Fp32.mul a.z b.y);
    y = Fp32.sub (Fp32.mul a.z b.x) (Fp32.mul a.x b.z);
    z = Fp32.sub (Fp32.mul a.x b.y) (Fp32.mul a.y b.x);
  }

let norm v =
  let len = Fp32.round (Float.sqrt (dot v v)) in
  scale v (Fp32.div 1.0 len)

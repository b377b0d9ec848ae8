type t =
  | Mcmc of { beta : float }
  | Hill
  | Anneal of {
      t0 : float;
      cooling : float;
    }
  | Random_walk

(* [Rng.Dist.float g 1.0], computed here: a float returned from another
   module is boxed. *)
let[@inline] uniform g = Int.to_float (Rng.Xoshiro256.next_top53 g) /. 0x1p53

(* The bound, [infinity] for none: shared by [accept_bound] and, inlined
   so that nothing is boxed, [accept_limit]. *)
let[@inline] bound t g ~iter =
  match t with
  | Random_walk -> Float.infinity
  | Hill -> 0.
  | Mcmc { beta } ->
    let u = uniform g in
    if u <= 0. then Float.infinity else -.Float.log u /. beta
  | Anneal { t0; cooling } ->
    let u = uniform g in
    let temp = Float.max 1e-9 (t0 *. Float.pow cooling (float_of_int iter)) in
    if u <= 0. then Float.infinity else -.Float.log u *. temp

let accept_bound t g ~iter =
  let b = bound t g ~iter in
  if b = Float.infinity then None else Some b

let accept_limit t g ~iter ~current =
  let b = bound t g ~iter in
  if b = Float.infinity then b else current +. b

let default_anneal = Anneal { t0 = 1e12; cooling = 0.99997 }

let to_string = function
  | Mcmc _ -> "mcmc"
  | Hill -> "hill"
  | Anneal _ -> "anneal"
  | Random_walk -> "rand"

let fingerprint = function
  | Mcmc { beta } -> Printf.sprintf "mcmc:beta=%h" beta
  | Hill -> "hill"
  | Anneal { t0; cooling } -> Printf.sprintf "anneal:t0=%h:cooling=%h" t0 cooling
  | Random_walk -> "rand"

let of_string = function
  | "mcmc" -> Some (Mcmc { beta = 1.0 })
  | "hill" -> Some Hill
  | "anneal" -> Some default_anneal
  | "rand" -> Some Random_walk
  | _ -> None

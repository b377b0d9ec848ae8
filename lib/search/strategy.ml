type t =
  | Mcmc of { beta : float }
  | Hill
  | Anneal of {
      t0 : float;
      cooling : float;
    }
  | Random_walk

let accept_bound t g ~iter =
  match t with
  | Random_walk -> None
  | Hill -> Some 0.
  | Mcmc { beta } ->
    let u = Rng.Dist.float g 1.0 in
    if u <= 0. then None else Some (-.Float.log u /. beta)
  | Anneal { t0; cooling } ->
    let u = Rng.Dist.float g 1.0 in
    let temp = Float.max 1e-9 (t0 *. Float.pow cooling (float_of_int iter)) in
    if u <= 0. then None else Some (-.Float.log u *. temp)

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

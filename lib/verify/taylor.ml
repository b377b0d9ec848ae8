type config = Bbound.config

let default_config = Bbound.default_config

type analysis = {
  sound_ulps : float;
  proved_real_equal : bool;
  target_range : Interval.itv;
  boxes_explored : int;
  depth : int;
}

(* ----- the shared real-expression DAG ----- *)

(* The rounding grid an operation's result lands on.  Min/max and
   width-extending converts are exact. *)
type rprec =
  | R32
  | R64
  | Rexact

type node =
  | NConst of float
  | NVar of int
  | NBin of Symbolic.op2 * rprec * int * int
  | NSqrt of rprec * int
  | NCvt of rprec * int  (** pure rounding of an already-computed value *)

type dag = {
  tbl : (node, int) Hashtbl.t;
  mutable nodes : node array;
  mutable count : int;
  vars : (string, int) Hashtbl.t;
  mutable var_names : string list;  (* reverse order *)
}

let create_dag () =
  {
    tbl = Hashtbl.create 64;
    nodes = Array.make 64 (NConst 0.);
    count = 0;
    vars = Hashtbl.create 8;
    var_names = [];
  }

let push dag n =
  match Hashtbl.find_opt dag.tbl n with
  | Some id -> id
  | None ->
    if dag.count = Array.length dag.nodes then begin
      let bigger = Array.make (2 * dag.count) (NConst 0.) in
      Array.blit dag.nodes 0 bigger 0 dag.count;
      dag.nodes <- bigger
    end;
    dag.nodes.(dag.count) <- n;
    Hashtbl.add dag.tbl n dag.count;
    dag.count <- dag.count + 1;
    dag.count - 1

let var_id dag name =
  match Hashtbl.find_opt dag.vars name with
  | Some k -> push dag (NVar k)
  | None ->
    let k = Hashtbl.length dag.vars in
    Hashtbl.add dag.vars name k;
    dag.var_names <- name :: dag.var_names;
    push dag (NVar k)

(* ----- lifting Symbolic.term into the DAG -----

   Each operation is one node, pushed after its operands (hash-consing
   relies on Symbolic.normalize having sorted commutative arguments, so
   shared work shares node ids). *)

let rounding = function
  | Symbolic.P32 -> R32
  | Symbolic.P64 -> R64

let algebra dag =
  {
    Symbolic.input = var_id dag;
    const = (fun c -> push dag (NConst c));
    op1 =
      (fun op p a ->
        match op, p with
        | Symbolic.Sqrt, _ -> push dag (NSqrt (rounding p, a))
        (* widening: every binary32 value is exactly representable *)
        | Symbolic.Cvt, Symbolic.P64 -> a
        | Symbolic.Cvt, Symbolic.P32 -> push dag (NCvt (R32, a)));
    op2 =
      (fun op p a b ->
        let prec =
          match op with
          | Symbolic.Min | Symbolic.Max -> Rexact
          | Symbolic.Add | Symbolic.Sub | Symbolic.Mul | Symbolic.Div ->
            rounding p
        in
        push dag (NBin (op, prec, a, b)));
  }

(* ----- polynomial normal form of the real difference -----

   The real (perturbation-free) part of target − rewrite is expanded into
   a sum of monomials over atomic factors, with division, sqrt, and
   min/max kept as opaque atoms.  Coefficient arithmetic runs in interval
   form with exactness checks, so constant combination never silently
   rounds; a monomial whose coefficient is exactly the point zero
   cancels.  Reassociations and distributions — the rewrites interval
   subtraction cannot see through — cancel here exactly. *)

exception Poly_bail

type atom =
  | Avar of int
  | Adiv of poly * poly
  | Asqrt of poly
  | Amin of poly * poly
  | Amax of poly * poly

and monomial = {
  c : Interval.itv;
  atoms : atom list;  (* sorted *)
}

and poly = monomial list (* sorted by atom lists *)

let rec compare_atom a b =
  match a, b with
  | Avar x, Avar y -> compare x y
  | Adiv (p, q), Adiv (p', q') | Amin (p, q), Amin (p', q')
  | Amax (p, q), Amax (p', q') ->
    let c = compare_poly p p' in
    if c <> 0 then c else compare_poly q q'
  | Asqrt p, Asqrt p' -> compare_poly p p'
  | Avar _, _ -> -1
  | _, Avar _ -> 1
  | Adiv _, _ -> -1
  | _, Adiv _ -> 1
  | Asqrt _, _ -> -1
  | _, Asqrt _ -> 1
  | Amin _, _ -> -1
  | _, Amin _ -> 1

and compare_atoms xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare_atom x y in
    if c <> 0 then c else compare_atoms xs' ys'

and compare_mono (m : monomial) (m' : monomial) =
  let c = compare_atoms m.atoms m'.atoms in
  if c <> 0 then c
  else
    let c = compare m.c.Interval.lo m'.c.Interval.lo in
    if c <> 0 then c else compare m.c.Interval.hi m'.c.Interval.hi

and compare_poly p q =
  if p == q then 0
  else
    match p, q with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | m :: p', m' :: q' ->
      let c = compare_mono m m' in
      if c <> 0 then c else compare_poly p' q'

let is_point (i : Interval.itv) = i.Interval.lo = i.Interval.hi

let point x = Interval.make x x

(* Exactness-checked coefficient arithmetic: results stay point intervals
   only when the float operation is provably exact. *)
let cadd (a : Interval.itv) (b : Interval.itv) =
  if is_point a && is_point b then begin
    let x = a.Interval.lo and y = b.Interval.lo in
    let s = x +. y in
    if Float.is_finite s && s -. x = y && s -. y = x then point s
    else Interval.add a b
  end
  else Interval.add a b

let cmul (a : Interval.itv) (b : Interval.itv) =
  if is_point a && is_point b then begin
    let x = a.Interval.lo and y = b.Interval.lo in
    let p = x *. y in
    if Float.is_finite p && Float.fma x y (-.p) = 0. then point p
    else Interval.mul a b
  end
  else Interval.mul a b

let cneg (a : Interval.itv) =
  Interval.make (-.a.Interval.hi) (-.a.Interval.lo)

let is_zero_coeff (i : Interval.itv) = i.Interval.lo = 0. && i.Interval.hi = 0.

(* Sort and merge monomials with equal atom lists; drop exact zeros. *)
let collect (ms : monomial list) : poly =
  let sorted = List.sort (fun m m' -> compare_atoms m.atoms m'.atoms) ms in
  let rec merge = function
    | [] -> []
    | [ m ] -> if is_zero_coeff m.c then [] else [ m ]
    | m :: m' :: rest ->
      if compare_atoms m.atoms m'.atoms = 0 then
        merge ({ m with c = cadd m.c m'.c } :: rest)
      else if is_zero_coeff m.c then merge (m' :: rest)
      else m :: merge (m' :: rest)
  in
  merge sorted

let max_monomials = 512

let padd (p : poly) (q : poly) : poly =
  let r = collect (p @ q) in
  if List.length r > max_monomials then raise Poly_bail;
  r

let pneg (p : poly) : poly = List.map (fun m -> { m with c = cneg m.c }) p

let pmul (p : poly) (q : poly) : poly =
  if List.length p * List.length q > max_monomials then raise Poly_bail;
  let r =
    collect
      (List.concat_map
         (fun m ->
           List.map
             (fun m' ->
               {
                 c = cmul m.c m'.c;
                 atoms = List.merge compare_atom m.atoms m'.atoms;
               })
             q)
         p)
  in
  if List.length r > max_monomials then raise Poly_bail;
  r

let const_poly c = if c = 0. then [] else [ { c = point c; atoms = [] } ]

(* Real semantics of each DAG node as a polynomial (memoized on node id:
   the hash-consed DAG guarantees shared subterms of the target and
   rewrite reach physically equal polynomials, so [compare_poly]'s
   pointer shortcut keeps cancellation cheap). *)
let poly_of_dag dag =
  let memo = Array.make dag.count None in
  let rec go id =
    match memo.(id) with
    | Some p -> p
    | None ->
      let p =
        match dag.nodes.(id) with
        | NConst c -> const_poly c
        | NVar k -> [ { c = point 1.; atoms = [ Avar k ] } ]
        | NBin (Symbolic.Add, _, a, b) -> padd (go a) (go b)
        | NBin (Symbolic.Sub, _, a, b) -> padd (go a) (pneg (go b))
        | NBin (Symbolic.Mul, _, a, b) -> pmul (go a) (go b)
        | NBin (Symbolic.Div, _, a, b) ->
          [ { c = point 1.; atoms = [ Adiv (go a, go b) ] } ]
        | NBin (Symbolic.Min, _, a, b) ->
          [ { c = point 1.; atoms = [ Amin (go a, go b) ] } ]
        | NBin (Symbolic.Max, _, a, b) ->
          [ { c = point 1.; atoms = [ Amax (go a, go b) ] } ]
        | NSqrt (_, a) -> [ { c = point 1.; atoms = [ Asqrt (go a) ] } ]
        | NCvt (_, a) -> go a
      in
      memo.(id) <- Some p;
      p
  in
  go

(* ----- the evaluation tape -----

   Branch-and-bound evaluates the objective on a couple of thousand boxes
   per analysis.  Every interval one evaluation computes lives in a
   numbered slot of two endpoint buffers, laid out once per analysis:

     [0, n)        raw:   the pre-rounding enclosure of node i
     [n, 2n)       jv:    node i's enclosure across the whole e-cube
     [2n, 3n)      the adjoint of node i in the target's root
     [3n, 4n)      the adjoint of node i in the rewrite's root
     [4n, 4n + v)  the box's input intervals
     then the constants 0, 1 and 2, scratch slots, and the compiled
     difference polynomials' coefficients and values.

   The perturbation bounds eᵢ are a third buffer.  An evaluation only
   writes slots, through {!Interval.Kernel}, so it allocates nothing.
   Interval sums round outward at every step, so the order of the
   operations is part of the bound: adjoints accumulate in node order
   (operand a before operand b), the round-off sum runs in node order,
   and the polynomial keeps its nesting.  test_verify and bench smoke
   pin the resulting bits. *)

let u64 = Float.pow 2. (-53.)
let d64 = Float.pow 2. (-1074.)
let u32 = Float.pow 2. (-24.)
let d32 = Float.pow 2. (-149.)

(* One instruction of a compiled polynomial: destination slot first. *)
type pinstr =
  | Padd of int * int * int
  | Pmul of int * int * int
  | Pdiv of int * int * int
  | Psqrt of int * int
  | Pmin of int * int * int
  | Pmax of int * int * int
  | Ppow of int * int * int  (** destination, base, exponent *)

type tape_case = {
  tc_t_root : int;
  tc_r_root : int;
  code : pinstr array option;
      (** the real difference polynomial; None: expansion bailed, so the
          objective uses the interval difference of the two roots *)
  out : int;  (** the slot [code] leaves the polynomial's value in *)
}

type tape = {
  n : int;  (** DAG nodes *)
  nodes : node array;
  lo : Float.Array.t;
  hi : Float.Array.t;
  eb : Float.Array.t;  (** per-node perturbation bound uᵢ·|rᵢ| + dᵢ *)
  vars : int;
  zero : int;
  one : int;
  two : int;
  s0 : int;  (** four scratch slots *)
  tape_cases : tape_case array;
}

let adj_t t = 2 * t.n
let adj_r t = 3 * t.n

module K = Interval.Kernel

(* [Interval.mag] of slot [i]; [Float.max] only for ties and NaNs, whose
   sign-bit tests are calls into the runtime. *)
let[@inline] mag (t : tape) i =
  let a = Float.abs (Float.Array.get t.lo i)
  and b = Float.abs (Float.Array.get t.hi i) in
  if b > a then b else if a > b then a else Float.max a b

let[@inline] set_point (t : tape) i x =
  Float.Array.set t.lo i x;
  Float.Array.set t.hi i x

(* The binary64 successor of [x], as the upper end of one widening step
   of the point [x] in a scratch slot. *)
let[@inline] succ_via (t : tape) x =
  let s = t.s0 + 3 in
  set_point t s x;
  K.widen Interval.P64 t.lo t.hi s;
  Float.Array.get t.hi s

(* Min/max of two enclosures; either operand ⊤ gives ⊤. *)
let min_or_top (t : tape) d a b =
  if K.is_top t.lo t.hi a || K.is_top t.lo t.hi b then K.set_top t.lo t.hi d
  else K.min t.lo t.hi d a b

let max_or_top (t : tape) d a b =
  if K.is_top t.lo t.hi a || K.is_top t.lo t.hi b then K.set_top t.lo t.hi d
  else K.max t.lo t.hi d a b

(* The polynomial normal form compiled to slots: a sum of monomials
   folded from 0, each its coefficient times the product of its atoms'
   powers (a repeated atom is raised to its multiplicity once, with
   even-power tightening), nested rightwards and closed by the point 1,
   whose multiplication widens too. *)
let compile_poly ~vars ~zero ~one ~fresh ~const ~emit (p : poly) =
  let op2 mk a b =
    let d = fresh () in
    emit (mk d a b);
    d
  in
  let rec atom = function
    | Avar k -> vars + k
    | Adiv (p, q) ->
      let a = poly p in
      op2 (fun d a b -> Pdiv (d, a, b)) a (poly q)
    | Asqrt p ->
      let a = poly p in
      let d = fresh () in
      emit (Psqrt (d, a));
      d
    | Amin (p, q) ->
      let a = poly p in
      op2 (fun d a b -> Pmin (d, a, b)) a (poly q)
    | Amax (p, q) ->
      let a = poly p in
      op2 (fun d a b -> Pmax (d, a, b)) a (poly q)
  and factors = function
    | [] -> one
    | a :: rest ->
      let same, rest' = List.partition (fun a' -> compare_atom a a' = 0) rest in
      let k = 1 + List.length same in
      let x = atom a in
      let x = if k = 1 then x else op2 (fun d a k -> Ppow (d, a, k)) x k in
      op2 (fun d a b -> Pmul (d, a, b)) x (factors rest')
  and poly p =
    List.fold_left
      (fun acc (m : monomial) ->
        let f = factors m.atoms in
        let prod = op2 (fun d a b -> Pmul (d, a, b)) (const m.c) f in
        op2 (fun d a b -> Padd (d, a, b)) acc prod)
      zero p
  in
  poly p

let run_code (t : tape) code =
  let lo = t.lo and hi = t.hi in
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Padd (d, a, b) -> K.add Interval.P64 lo hi d a b
    | Pmul (d, a, b) -> K.mul Interval.P64 lo hi d a b
    | Pdiv (d, a, b) -> K.div Interval.P64 lo hi d a b
    | Psqrt (d, a) -> K.sqrt Interval.P64 lo hi d a
    | Pmin (d, a, b) -> min_or_top t d a b
    | Pmax (d, a, b) -> max_or_top t d a b
    | Ppow (d, a, k) -> K.pow lo hi d a k
  done

(* Node [id]'s perturbation bound and its enclosure across the e-cube,
   from its raw enclosure. *)
let round (t : tape) id prec =
  let lo = t.lo and hi = t.hi in
  let j = t.n + id in
  K.copy lo hi j id;
  if K.is_top lo hi id then Float.Array.set t.eb id Float.infinity
  else begin
    let e =
      match prec with
      | Rexact -> 0.
      | R64 -> succ_via t ((u64 *. mag t id) +. d64)
      | R32 -> succ_via t ((u32 *. mag t id) +. d32)
    in
    Float.Array.set t.eb id e;
    if e <> 0. then begin
      Float.Array.set lo j (Float.Array.get lo id -. e);
      Float.Array.set hi j (Float.Array.get hi id +. e);
      K.widen Interval.P64 lo hi j
    end
  end

(* The forward interval pass: raw enclosures from the operands' jv, each
   arithmetic node evaluated at binary64 and then perturbed.  Constants'
   slots are filled once, in [make_tape]. *)
let forward (t : tape) =
  let lo = t.lo and hi = t.hi and jv = t.n in
  for id = 0 to t.n - 1 do
    match t.nodes.(id) with
    | NConst _ -> ()
    | NVar k ->
      K.copy lo hi id (t.vars + k);
      round t id Rexact
    | NBin (op, p, a, b) ->
      let a = jv + a and b = jv + b in
      (match op with
       | Symbolic.Add -> K.add Interval.P64 lo hi id a b
       | Symbolic.Sub -> K.sub Interval.P64 lo hi id a b
       | Symbolic.Mul -> K.mul Interval.P64 lo hi id a b
       | Symbolic.Div -> K.div Interval.P64 lo hi id a b
       | Symbolic.Min -> min_or_top t id a b
       | Symbolic.Max -> max_or_top t id a b);
      round t id p
    | NSqrt (p, a) ->
      K.sqrt Interval.P64 lo hi id (jv + a);
      round t id p
    | NCvt (p, a) ->
      K.copy lo hi id (jv + a);
      round t id p
  done

(* [d] ← the square of slot [a], non-negative; [d] ≠ [a]. *)
let square (t : tape) d a =
  let lo = t.lo and hi = t.hi in
  K.mul Interval.P64 lo hi d a a;
  if not (K.is_top lo hi d) then
    Float.Array.set lo d
      (if 0. >= Float.Array.get lo a && 0. <= Float.Array.get hi a then 0.
       else
         let m = Float.Array.get lo d in
         if 0. >= m then 0. else m)

(* [d] ← the hull of slot [a] and 0. *)
let hull0 (t : tape) d a =
  if K.is_top t.lo t.hi a then K.copy t.lo t.hi d a
  else begin
    Float.Array.set t.lo d (Float.min 0. (Float.Array.get t.lo a));
    Float.Array.set t.hi d (Float.max 0. (Float.Array.get t.hi a))
  end

let bump (t : tape) base k v =
  K.add Interval.P64 t.lo t.hi (base + k) (base + k) v

(* ----- interval reverse-mode adjoints -----

   Slot [base + i] encloses ∂(root)/∂eᵢ — the derivative of the root
   value with respect to an additive perturbation at node i — over the
   whole input box and perturbation cube (all intermediate values drawn
   from jv, which encloses every perturbed evaluation).  A node whose
   adjoint is exactly 0 passes nothing on: adding the point 0 would
   still widen. *)
let adjoints (t : tape) base root =
  let lo = t.lo and hi = t.hi and jv = t.n in
  let s0 = t.s0 and s1 = t.s0 + 1 and s2 = t.s0 + 2 in
  Float.Array.fill lo base t.n 0.;
  Float.Array.fill hi base t.n 0.;
  set_point t (base + root) 1.;
  for id = t.n - 1 downto 0 do
    let an = base + id in
    if not (Float.Array.get lo an = 0. && Float.Array.get hi an = 0.) then
      match t.nodes.(id) with
      | NConst _ | NVar _ -> ()
      | NBin (Symbolic.Add, _, a, b) ->
        bump t base a an;
        bump t base b an
      | NBin (Symbolic.Sub, _, a, b) ->
        bump t base a an;
        K.sub Interval.P64 lo hi s0 t.zero an;
        bump t base b s0
      | NBin (Symbolic.Mul, _, a, b) ->
        K.mul Interval.P64 lo hi s0 an (jv + b);
        bump t base a s0;
        K.mul Interval.P64 lo hi s0 an (jv + a);
        bump t base b s0
      | NBin (Symbolic.Div, _, a, b) ->
        K.div Interval.P64 lo hi s0 an (jv + b);
        bump t base a s0;
        K.mul Interval.P64 lo hi s0 an (jv + a);
        square t s1 (jv + b);
        K.div Interval.P64 lo hi s2 s0 s1;
        K.sub Interval.P64 lo hi s0 t.zero s2;
        bump t base b s0
      | NBin ((Symbolic.Min | Symbolic.Max), _, a, b) ->
        (* subgradient pair (θ, 1−θ), θ ∈ [0,1] *)
        hull0 t s0 an;
        bump t base a s0;
        bump t base b s0
      | NSqrt (_, a) ->
        K.sqrt Interval.P64 lo hi s0 (jv + a);
        K.mul Interval.P64 lo hi s1 t.two s0;
        K.div Interval.P64 lo hi s2 an s1;
        bump t base a s2
      | NCvt (_, a) -> bump t base a an
  done

let load_box (t : tape) (box : Interval.itv array) =
  for k = 0 to Array.length box - 1 do
    Float.Array.set t.lo (t.vars + k) box.(k).Interval.lo;
    Float.Array.set t.hi (t.vars + k) box.(k).Interval.hi
  done

(* The objective on one box: the largest, over the live output cases, of
   |Δ(x)| + Σᵢ sup|∂Δ̂/∂eᵢ|·eᵢ in units of that output's [units] entry. *)
let objective (t : tape) units box =
  let lo = t.lo and hi = t.hi in
  load_box t box;
  forward t;
  let acc = ref 0. in
  for c = 0 to Array.length t.tape_cases - 1 do
    let tc = t.tape_cases.(c) in
    if tc.tc_t_root <> tc.tc_r_root then begin
      adjoints t (adj_t t) tc.tc_t_root;
      adjoints t (adj_r t) tc.tc_r_root;
      let round_off = ref 0. in
      for id = 0 to t.n - 1 do
        let e = Float.Array.get t.eb id in
        if e > 0. then begin
          K.sub Interval.P64 lo hi t.s0 (adj_t t + id) (adj_r t + id);
          round_off := !round_off +. (mag t t.s0 *. e)
        end
      done;
      let real_diff =
        match tc.code with
        | Some code ->
          run_code t code;
          mag t tc.out
        | None ->
          K.sub Interval.P64 lo hi t.s0 tc.tc_t_root tc.tc_r_root;
          mag t t.s0
      in
      let v = (!round_off +. real_diff) /. Float.Array.get units c in
      (* [Stdlib.max !acc v], without its polymorphic call *)
      if not (!acc >= v) then acc := v
    end
  done;
  !acc

(* ----- the full analysis ----- *)

type output_case = {
  t_root : int;
  r_root : int;
  single : bool;
  diff_poly : poly option;  (** None: expansion bailed; use interval diff *)
}

(* Both programs' outputs in one DAG, target then rewrite for each
   output in turn, then each output's difference polynomial. *)
let build (pair : Symbolic.pair) =
  let dag = create_dag () in
  let alg = algebra dag in
  let roots =
    Array.mapi
      (fun idx p ->
        let t_root = Symbolic.fold alg p pair.Symbolic.target.(idx) in
        let r_root = Symbolic.fold alg p pair.Symbolic.rewrite.(idx) in
        (p, t_root, r_root))
      pair.Symbolic.precs
  in
  let poly = poly_of_dag dag in
  let cases =
    List.map
      (fun (p, t_root, r_root) ->
        let diff_poly =
          if t_root = r_root then Some []
          else
            try Some (padd (poly t_root) (pneg (poly r_root)))
            with Poly_bail -> None
        in
        { t_root; r_root; single = p = Symbolic.P32; diff_poly })
      (Array.to_list roots)
  in
  (dag, cases)

let box_of_spec dag (spec : Sandbox.Spec.t) =
  let env = Interval.env_of_spec spec in
  let names = Array.of_list (List.rev dag.var_names) in
  Array.map
    (fun name ->
      match env name with
      | Some i -> i
      | None ->
        raise
          (Interval.Not_analyzable
             (Printf.sprintf "unconstrained input %s" name)))
    names

let make_tape dag cases =
  let n = dag.count in
  let vars = 4 * n in
  let zero = vars + Hashtbl.length dag.vars in
  let one = zero + 1 and two = zero + 2 and s0 = zero + 3 in
  let next = ref (s0 + 4) in
  let fresh () =
    incr next;
    !next - 1
  in
  let coeffs = ref [] in
  let const c =
    let d = fresh () in
    coeffs := (d, c) :: !coeffs;
    d
  in
  let tape_cases =
    Array.of_list
      (List.map
         (fun c ->
           let code, out =
             match c.diff_poly with
             | Some p ->
               let code = ref [] in
               let emit i = code := i :: !code in
               let out = compile_poly ~vars ~zero ~one ~fresh ~const ~emit p in
               (Some (Array.of_list (List.rev !code)), out)
             | None -> (None, 0)
           in
           { tc_t_root = c.t_root; tc_r_root = c.r_root; code; out })
         cases)
  in
  let t =
    {
      n;
      nodes = Array.sub dag.nodes 0 n;
      lo = Float.Array.make !next 0.;
      hi = Float.Array.make !next 0.;
      eb = Float.Array.make n 0.;
      vars;
      zero;
      one;
      two;
      s0;
      tape_cases;
    }
  in
  set_point t zero 0.;
  set_point t one 1.;
  set_point t two 2.;
  List.iter
    (fun (d, (c : Interval.itv)) ->
      Float.Array.set t.lo d c.Interval.lo;
      Float.Array.set t.hi d c.Interval.hi)
    !coeffs;
  (* a constant's raw enclosure is its point, exact (eᵢ = 0), so its jv
     is the same point *)
  for id = 0 to n - 1 do
    match t.nodes.(id) with
    | NConst c ->
      set_point t id c;
      set_point t (n + id) c
    | NVar _ | NBin _ | NSqrt _ | NCvt _ -> ()
  done;
  t

let jv_itv (t : tape) id =
  Interval.make (Float.Array.get t.lo (t.n + id)) (Float.Array.get t.hi (t.n + id))

let bound ?(config = default_config) (spec : Sandbox.Spec.t) pair =
  try
    let dag, cases = build pair in
    let box0 = box_of_spec dag spec in
    let t = make_tape dag cases in
    (* Fixed per-output ULP units from the full-box target range keep
       the branch-and-bound objective inclusion-monotone. *)
    load_box t box0;
    forward t;
    let target_range =
      List.fold_left
        (fun acc c -> Interval.hull acc (jv_itv t c.t_root))
        (match cases with
         | [] -> Interval.make 0. 0.
         | c :: _ -> jv_itv t c.t_root)
        cases
    in
    let units =
      Float.Array.of_list
        (List.map
           (fun c ->
             Interval.ulp_size_at
               (Interval.mag (jv_itv t c.t_root))
               ~single:c.single)
           cases)
    in
    let live = List.exists (fun c -> c.t_root <> c.r_root) cases in
    if not live then
      Ok
        {
          sound_ulps = 0.;
          proved_real_equal = true;
          target_range;
          boxes_explored = 0;
          depth = 0;
        }
    else begin
      let sup, stats =
        Bbound.maximize config ~f:(objective t units) ~box:box0
      in
      let proved_real_equal =
        List.for_all
          (fun c -> c.t_root = c.r_root || c.diff_poly = Some [])
          cases
      in
      Ok
        {
          sound_ulps = sup;
          proved_real_equal;
          target_range;
          boxes_explored = stats.Bbound.boxes_explored;
          depth = stats.Bbound.depth;
        }
    end
  with Symbolic.Unsupported msg | Interval.Not_analyzable msg -> Error msg

type itv = {
  lo : float;
  hi : float;
}

let make lo hi = { lo; hi }

(* The width of one arithmetic operation's rounding error depends on the
   precision the hardware op rounds to: an f32 op can move the result by a
   whole binary32 ulp, which is ~2^29 binary64 ulps.  [prec] selects the
   grid used for outward widening. *)
type prec = Symbolic.prec =
  | P32
  | P64

(* ----- kernels over endpoint buffers -----

   Every interval operation is written once, here, over two [Float.Array]
   buffers that hold the lower and upper endpoints of numbered slots.  A
   kernel reads its operands into unboxed locals, then writes its result
   slot, which may be one of its operands.  Nothing allocates, and a
   caller in another module passes only buffers and ints, so no float
   crosses a module boundary (where it would be boxed).  The record API
   below is a thin wrapper over the same kernels. *)

module Kernel = struct
  type buf = Float.Array.t

  let get = Float.Array.get
  let set = Float.Array.set

  (* [Fp64]'s and [Fp32]'s succ and pred, bit for bit, computed here: a
     call into Fpbits returns a boxed float. *)
  let[@inline] of_ordered64 o =
    if o >= 0L then Int64.float_of_bits o
    else Int64.float_of_bits (Int64.sub Int64.min_int o)

  let[@inline] ordered64 x =
    let b = Int64.bits_of_float x in
    if b < 0L then Int64.sub Int64.min_int b else b

  (* ±∞ step to themselves, as the NaN endpoints do: the next ordered
     index past an infinity is a NaN, which no interval may hold. *)
  let[@inline] succ64_bits x =
    let o = ordered64 x in
    if o = Int64.max_int || o = 0x7ff0_0000_0000_0000L then x
    else of_ordered64 (Int64.add o 1L)

  let[@inline] pred64_bits x =
    let o = ordered64 x in
    if o = Int64.add Int64.min_int 1L || o = -0x7ff0_0000_0000_0000L then x
    else of_ordered64 (Int64.sub o 1L)

  (* Away from the subnormals one float operation finds the neighbour
     (Rump, Zimmermann, Boldo and Melquiond, "Computing predecessor and
     successor in rounding to nearest", BIT 2009).  With
     φ = 2⁻⁵³(1 + 2⁻⁵²) and |x| ≥ 2⁻⁹⁶⁹, so that φ·|x| does not
     underflow, x + φ·|x| is more than half an ulp above x and nearer to
     x's successor than to anything beyond it, so rounding to nearest
     gives the successor; a power of 2 included, where a plain 2⁻⁵³
     would tie back to x.  Likewise x − φ·|x| for the predecessor.
     Subnormals, ±∞ and NaN take the bit path, whose two calls into the
     runtime cost more than the float operations. *)
  let phi = 0x1.0000000000001p-53

  let[@inline] succ64 x =
    let a = Float.abs x in
    if a >= 0x1p-969 && a <= Float.max_float then x +. (phi *. a)
    else succ64_bits x

  let[@inline] pred64 x =
    let a = Float.abs x in
    if a >= 0x1p-969 && a <= Float.max_float then x -. (phi *. a)
    else pred64_bits x

  let[@inline] of_ordered32 o =
    if o >= 0l then Int32.float_of_bits o
    else Int32.float_of_bits (Int32.sub Int32.min_int o)

  let[@inline] ordered32 x =
    let b = Int32.bits_of_float x in
    if b < 0l then Int32.sub Int32.min_int b else b

  (* A double beyond the binary32 range snaps to ±∞, which, as above, is
     its own neighbour. *)
  let[@inline] succ32 x =
    let o = ordered32 x in
    if o = Int32.max_int then x
    else of_ordered32 (if o = 0x7f80_0000l then o else Int32.add o 1l)

  let[@inline] pred32 x =
    let o = ordered32 x in
    if o = Int32.add Int32.min_int 1l then x
    else of_ordered32 (if o = -0x7f80_0000l then o else Int32.sub o 1l)

  (* [Float.min]/[Float.max], bit for bit, without their sign-bit calls
     when the operands are ordered: only equal operands (±0) or a NaN
     take the general path. *)
  let[@inline] fmin (x : float) y =
    if y > x then x else if x > y then y else Float.min x y

  let[@inline] fmax (x : float) y =
    if y > x then y else if x > y then x else Float.max x y

  let[@inline] top_v l h = l = Float.neg_infinity && h = Float.infinity

  let set_top lo hi d =
    set lo d Float.neg_infinity;
    set hi d Float.infinity

  let is_top lo hi a = top_v (get lo a) (get hi a)

  let copy lo hi d a =
    set lo d (get lo a);
    set hi d (get hi a)

  (* Widen outward by one representable value of the operation's
     precision: a sound (if slightly lazy) account of round-to-nearest
     error.  For P32 the endpoints are first snapped to the binary32 grid
     (the [Int32.bits_of_float] inside [pred32]/[succ32]); since
     nearest-rounding moves an endpoint by at most half a binary32 ulp,
     one full step outward still encloses the true rounded result (the
     binary64 noise of our own interval computation is orders of
     magnitude below that half-ulp). *)
  let[@inline] widen_v prec lo hi d l h =
    match prec with
    | P64 ->
      set lo d (pred64 l);
      set hi d (succ64 h)
    | P32 ->
      set lo d (pred32 l);
      set hi d (succ32 h)

  let widen prec lo hi d = widen_v prec lo hi d (get lo d) (get hi d)

  (* ⊤ stays ⊤. *)
  let[@inline] inflate_v prec lo hi d l h =
    if top_v l h then set_top lo hi d else widen_v prec lo hi d l h

  (* The hull of the four endpoint combinations, folded in candidate
     order; a NaN anywhere (∞ − ∞, 0 · ∞) gives ⊤.  The fold starts at
     [c1]: [Float.min ∞ c1] and [Float.max (−∞) c1] are [c1], NaN
     included, and an infinity read from [Float] would keep the partial
     results boxed. *)
  let[@inline] fold4 prec lo hi d c1 c2 c3 c4 =
    let l = fmin (fmin (fmin c1 c2) c3) c4 in
    let h = fmax (fmax (fmax c1 c2) c3) c4 in
    if Float.is_nan l || Float.is_nan h then set_top lo hi d
    else inflate_v prec lo hi d l h

  let add prec lo hi d a b =
    let al = get lo a and ah = get hi a and bl = get lo b and bh = get hi b in
    if top_v al ah || top_v bl bh then set_top lo hi d
    else fold4 prec lo hi d (al +. bl) (al +. bh) (ah +. bl) (ah +. bh)

  let sub prec lo hi d a b =
    let al = get lo a and ah = get hi a and bl = get lo b and bh = get hi b in
    if top_v al ah || top_v bl bh then set_top lo hi d
    else fold4 prec lo hi d (al -. bl) (al -. bh) (ah -. bl) (ah -. bh)

  let mul prec lo hi d a b =
    let al = get lo a and ah = get hi a and bl = get lo b and bh = get hi b in
    if top_v al ah || top_v bl bh then set_top lo hi d
    else fold4 prec lo hi d (al *. bl) (al *. bh) (ah *. bl) (ah *. bh)

  let div prec lo hi d a b =
    let al = get lo a and ah = get hi a and bl = get lo b and bh = get hi b in
    if top_v al ah || top_v bl bh then set_top lo hi d
    else if bl <= 0. && bh >= 0. then set_top lo hi d (* divisor spans zero *)
    else fold4 prec lo hi d (al /. bl) (al /. bh) (ah /. bl) (ah /. bh)

  let sqrt prec lo hi d a =
    let al = get lo a and ah = get hi a in
    if top_v al ah || al < 0. then set_top lo hi d
    else inflate_v prec lo hi d (Float.sqrt al) (Float.sqrt ah)

  (* Endpoint-wise min/max: exact, so no widening, and no ⊤ rule. *)
  let min lo hi d a b =
    let al = get lo a and ah = get hi a and bl = get lo b and bh = get hi b in
    set lo d (fmin al bl);
    set hi d (fmin ah bh)

  let max lo hi d a b =
    let al = get lo a and ah = get hi a and bl = get lo b and bh = get hi b in
    set lo d (fmax al bl);
    set hi d (fmax ah bh)

  let hull lo hi d a b =
    let al = get lo a and ah = get hi a and bl = get lo b and bh = get hi b in
    set lo d (fmin al bl);
    set hi d (fmax ah bh)

  (* [a]^k for k ≥ 1, one binary64 step outward; an even power is
     non-negative and 0 when [a] straddles 0, an odd power keeps the
     sign. *)
  let pow lo hi d a k =
    let al = get lo a and ah = get hi a in
    if k = 1 || top_v al ah then copy lo hi d a
    else begin
      let k' = float_of_int k in
      if k mod 2 = 0 then begin
        let m = fmax (Float.abs al) (Float.abs ah) in
        let lo_mag = fmin (Float.abs al) (Float.abs ah) in
        set lo d
          (if 0. >= al && 0. <= ah then 0. else pred64 (Float.pow lo_mag k'));
        set hi d (succ64 (Float.pow m k'))
      end
      else begin
        set lo d (pred64 (Float.pow al k'));
        set hi d (succ64 (Float.pow ah k'))
      end
    end
end

(* The record API: each operation loads its operands into a small pair of
   buffers, runs the kernel and reads the result back. *)
let run1 k (a : itv) =
  let lo = Float.Array.make 2 a.lo and hi = Float.Array.make 2 a.hi in
  k lo hi 1 0;
  { lo = Float.Array.get lo 1; hi = Float.Array.get hi 1 }

let run2 k (a : itv) (b : itv) =
  let lo = Float.Array.make 3 a.lo and hi = Float.Array.make 3 a.hi in
  Float.Array.set lo 1 b.lo;
  Float.Array.set hi 1 b.hi;
  k lo hi 2 0 1;
  { lo = Float.Array.get lo 2; hi = Float.Array.get hi 2 }

let add a b = run2 (Kernel.add P64) a b
let mul a b = run2 (Kernel.mul P64) a b

let hull a b = run2 Kernel.hull a b

let width i = i.hi -. i.lo

let mag i = Float.max (Float.abs i.lo) (Float.abs i.hi)

(* ----- term evaluation ----- *)

exception Not_analyzable of string

let algebra env =
  {
    Symbolic.input =
      (fun name ->
        match env name with
        | Some i -> i
        | None ->
          raise (Not_analyzable (Printf.sprintf "unconstrained input %s" name)));
    const = (fun x -> make x x);
    op1 =
      (fun op p a ->
        match op with
        | Symbolic.Sqrt -> run1 (Kernel.sqrt p) a
        | Symbolic.Cvt -> (
          (* widening is exact; narrowing is one binary32 rounding *)
          match p with
          | P64 -> a
          | P32 ->
            run1
              (fun lo hi d a ->
                Kernel.copy lo hi d a;
                if not (Kernel.is_top lo hi d) then Kernel.widen P32 lo hi d)
              a));
    op2 =
      (fun op p a b ->
        match op with
        | Symbolic.Add -> run2 (Kernel.add p) a b
        | Symbolic.Sub -> run2 (Kernel.sub p) a b
        | Symbolic.Mul -> run2 (Kernel.mul p) a b
        | Symbolic.Div -> run2 (Kernel.div p) a b
        | Symbolic.Min -> run2 Kernel.min a b
        | Symbolic.Max -> run2 Kernel.max a b);
  }

(* Spacing of representable values at the top magnitude of the interval
   hull; used to scale an absolute difference into "scaled ULPs". *)
let ulp_size_at magnitude ~single =
  let m = Float.max magnitude 1e-300 in
  let e = snd (Float.frexp m) in
  let p = if single then 24 else 53 in
  Float.pow 2. (float_of_int (e - p))

type analysis = {
  bound_ulps : float;
  target_range : itv;
  rewrite_range : itv;
}

let env_of_spec (spec : Sandbox.Spec.t) =
  (* Named float inputs in0, in1, …; memory-cell inputs are named
     base[offset] after the fixed pointer they are reached through. *)
  let tbl = Hashtbl.create 17 in
  let fixed_ptrs =
    List.filter_map
      (fun fx ->
        match fx with
        | Sandbox.Spec.Fix_gp (r, v) -> Some (Reg.gp_name Reg.Q r, v)
        | Sandbox.Spec.Fix_mem _ -> None)
      spec.Sandbox.Spec.fixed_inputs
  in
  let register_mem addr range =
    List.iter
      (fun (name, base) ->
        let off = Int64.sub addr base in
        if Int64.compare off 0L >= 0 && Int64.compare off 4096L < 0 then
          Hashtbl.replace tbl
            (Printf.sprintf "%s[%Ld]" name off)
            (make range.Sandbox.Spec.lo range.Sandbox.Spec.hi))
      fixed_ptrs
  in
  List.iteri
    (fun idx fi ->
      let name = Printf.sprintf "in%d" idx in
      match fi with
      | Sandbox.Spec.Fin_xmm_f64 (_, r)
      | Sandbox.Spec.Fin_xmm_f32 (_, r)
      | Sandbox.Spec.Fin_xmm_f32_hi (_, r) ->
        Hashtbl.replace tbl name (make r.Sandbox.Spec.lo r.Sandbox.Spec.hi)
      | Sandbox.Spec.Fin_mem_f32 (addr, r) | Sandbox.Spec.Fin_mem_f64 (addr, r) ->
        register_mem addr r)
    spec.Sandbox.Spec.float_inputs;
  fun name -> Hashtbl.find_opt tbl name

let static_ulp_bound (spec : Sandbox.Spec.t) (pair : Symbolic.pair) =
  let alg = algebra (env_of_spec spec) in
  try
    let bound = ref 0. in
    let t_range = ref (make 0. 0.) in
    let r_range = ref (make 0. 0.) in
    Array.iteri
      (fun idx p ->
        let ti = Symbolic.fold alg p pair.Symbolic.target.(idx) in
        let ri = Symbolic.fold alg p pair.Symbolic.rewrite.(idx) in
        t_range := if idx = 0 then ti else hull !t_range ti;
        r_range := if idx = 0 then ri else hull !r_range ri;
        if Symbolic.same_output pair idx then ()
        else begin
          let diff = run2 (Kernel.sub P64) ti ri in
          if diff.lo = Float.neg_infinity && diff.hi = Float.infinity then
            raise (Not_analyzable "difference unbounded")
          else begin
            let abs_diff = Float.max (Float.abs diff.lo) (Float.abs diff.hi) in
            let magnitude = Float.max (Float.abs ti.lo) (Float.abs ti.hi) in
            let u = ulp_size_at magnitude ~single:(p = P32) in
            bound := Float.max !bound (abs_diff /. u)
          end
        end)
      pair.Symbolic.precs;
    Ok { bound_ulps = !bound; target_range = !t_range; rewrite_range = !r_range }
  with Not_analyzable msg | Symbolic.Unsupported msg -> Error msg

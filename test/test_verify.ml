(* Tests for the verify library: symbolic UF equivalence (Figure 6),
   interval abstract interpretation, and the two-tier dispatch. *)

let dot_spec = Kernels.Aek_kernels.dot_spec
let delta_spec = Kernels.Aek_kernels.delta_spec

(* Each tier on the terms of one symbolic execution of both programs, as
   [Verifier.check] runs it. *)
let on_pair tier spec ~rewrite =
  Result.bind (Verify.Symbolic.exec_pair spec ~rewrite) (tier spec)

let taylor_bound ?config = on_pair (Verify.Taylor.bound ?config)
let static_ulp_bound = on_pair Verify.Interval.static_ulp_bound
let fpcore_difference = on_pair Verify.Fpcore.difference

let term_tests =
  [
    Alcotest.test_case "commutative normalization" `Quick (fun () ->
        let a = Verify.Symbolic.Sym "a" and b = Verify.Symbolic.Sym "b" in
        Alcotest.(check bool)
          "addss commutes" true
          (Verify.Symbolic.equal_term
             (Verify.Symbolic.App ("addss", [ a; b ]))
             (Verify.Symbolic.App ("addss", [ b; a ]))));
    Alcotest.test_case "subss does not commute" `Quick (fun () ->
        let a = Verify.Symbolic.Sym "a" and b = Verify.Symbolic.Sym "b" in
        Alcotest.(check bool)
          "ordered" false
          (Verify.Symbolic.equal_term
             (Verify.Symbolic.App ("subss", [ a; b ]))
             (Verify.Symbolic.App ("subss", [ b; a ]))));
    Alcotest.test_case "pack64 of lo32/hi32 collapses" `Quick (fun () ->
        let t = Verify.Symbolic.Sym "x" in
        let packed =
          Verify.Symbolic.App
            ("pack64",
             [ Verify.Symbolic.App ("lo32", [ t ]); Verify.Symbolic.App ("hi32", [ t ]) ])
        in
        Alcotest.(check bool) "collapsed" true (Verify.Symbolic.equal_term packed t));
    Alcotest.test_case "xor of equal terms is zero" `Quick (fun () ->
        let t = Verify.Symbolic.Sym "x" in
        Alcotest.(check bool)
          "zero" true
          (Verify.Symbolic.equal_term
             (Verify.Symbolic.App ("xor32", [ t; t ]))
             (Verify.Symbolic.Cst 0L)));
    Alcotest.test_case "constant folding of logicals" `Quick (fun () ->
        Alcotest.(check bool)
          "and" true
          (Verify.Symbolic.equal_term
             (Verify.Symbolic.App ("and32", [ Verify.Symbolic.Cst 0xff0L; Verify.Symbolic.Cst 0x0ffL ]))
             (Verify.Symbolic.Cst 0x0f0L)));
  ]

let symbolic_tests =
  [
    Alcotest.test_case "dot rewrite is bit-wise equivalent (Fig 6)" `Quick (fun () ->
        match Verify.Symbolic.equivalent dot_spec ~rewrite:Kernels.Aek_kernels.dot_rewrite with
        | Ok b -> Alcotest.(check bool) "equivalent" true b
        | Error e -> Alcotest.failf "not analyzable: %s" e);
    Alcotest.test_case "target is equivalent to itself" `Quick (fun () ->
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            match Verify.Symbolic.equivalent spec ~rewrite:spec.Sandbox.Spec.program with
            | Ok b -> Alcotest.(check bool) name true b
            | Error e -> Alcotest.failf "%s: %s" name e)
          [ ("dot", dot_spec);
            ("scale", Kernels.Aek_kernels.scale_spec);
            ("add", Kernels.Aek_kernels.add_spec);
            ("delta", delta_spec) ]);
    Alcotest.test_case "scale rewrite is bit-wise equivalent" `Quick (fun () ->
        match
          Verify.Symbolic.equivalent Kernels.Aek_kernels.scale_spec
            ~rewrite:Kernels.Aek_kernels.scale_rewrite
        with
        | Ok b -> Alcotest.(check bool) "equivalent" true b
        | Error e -> Alcotest.failf "not analyzable: %s" e);
    Alcotest.test_case "wrong rewrite is refuted" `Quick (fun () ->
        let wrong =
          Parser.parse_program_exn "mulss (rdi), xmm0\nmulss 8(rdi), xmm1\naddss xmm1, xmm0"
        in
        match Verify.Symbolic.equivalent dot_spec ~rewrite:wrong with
        | Ok b -> Alcotest.(check bool) "different" false b
        | Error e -> Alcotest.failf "not analyzable: %s" e);
    Alcotest.test_case "delta rewrite is NOT bit-wise equivalent" `Quick (fun () ->
        match
          Verify.Symbolic.equivalent delta_spec ~rewrite:Kernels.Aek_kernels.delta_rewrite
        with
        | Ok b -> Alcotest.(check bool) "reassociated" false b
        | Error e -> Alcotest.failf "not analyzable: %s" e);
    Alcotest.test_case "bit-manipulating kernels execute symbolically" `Quick
      (fun () ->
        (* libimf log extracts exponent bits with shifts, logicals, and
           int<->float converts — all interpreted now, so self-pairs
           prove bit-wise equivalent *)
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            match
              Verify.Symbolic.equivalent spec
                ~rewrite:spec.Sandbox.Spec.program
            with
            | Ok b -> Alcotest.(check bool) name true b
            | Error e -> Alcotest.failf "%s: %s" name e)
          [ ("log", Kernels.Libimf.log_spec);
            ("exp", Kernels.Libimf.exp_spec);
            ("s3d_exp", Kernels.S3d.exp_spec) ]);
    Alcotest.test_case "flag-dependent instructions abort analysis" `Quick
      (fun () ->
        let p =
          Parser.parse_program_exn "ucomisd xmm1, xmm0\naddsd xmm1, xmm0"
        in
        match Verify.Symbolic.exec Kernels.Libimf.sin_spec p with
        | Ok _ -> Alcotest.fail "expected unsupported"
        | Error _ -> ());
    Alcotest.test_case "add rewrite differs only in dead lanes" `Quick (fun () ->
        (* the lddqu/addps rewrite puts garbage in lanes 2–3 but our
           outputs only read lanes 0–1 of xmm0 and lane 0 of xmm1 *)
        match
          Verify.Symbolic.equivalent Kernels.Aek_kernels.add_spec
            ~rewrite:Kernels.Aek_kernels.add_rewrite
        with
        | Ok b -> Alcotest.(check bool) "equivalent on live outputs" true b
        | Error e -> Alcotest.failf "not analyzable: %s" e);
    Alcotest.test_case "vsqrtsd takes its high quad from src1" `Quick (fun () ->
        (* movhlps exposes the high quad of xmm2 as an output *)
        let spec =
          Sandbox.Spec.make ~name:"vsqrt"
            ~program:
              (Parser.parse_program_exn
                 "vsqrtsd xmm0, xmm1, xmm2\nmovhlps xmm2, xmm3")
            ~float_inputs:
              [ Sandbox.Spec.Fin_xmm_f64 (Reg.Xmm0, { Sandbox.Spec.lo = 1.; hi = 4. });
                Sandbox.Spec.Fin_xmm_f64 (Reg.Xmm1, { Sandbox.Spec.lo = 1.; hi = 4. }) ]
            ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm2; Sandbox.Spec.Out_xmm_f64 Reg.Xmm3 ]
            ()
        in
        let rewrite src =
          Parser.parse_program_exn
            (src ^ "\nsqrtsd xmm0, xmm2\nmovhlps xmm2, xmm3")
        in
        let equivalent src =
          match Verify.Symbolic.equivalent spec ~rewrite:(rewrite src) with
          | Ok b -> b
          | Error e -> Alcotest.failf "not analyzable: %s" e
        in
        Alcotest.(check bool) "upper lanes of src1" true
          (equivalent "movaps xmm1, xmm2");
        Alcotest.(check bool) "not of the sqrt operand" false
          (equivalent "movaps xmm0, xmm2");
        (* and the sandbox agrees with the proof *)
        let e = Validate.Errfn.create spec ~rewrite:(rewrite "movaps xmm1, xmm2") in
        let g = Rng.Xoshiro256.create 5L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "no error" 0L
            (Validate.Errfn.eval_ulp e (Sandbox.Spec.random_floats g spec))
        done);
  ]

let itv a b = { Verify.Interval.lo = a; hi = b }

(* Record views of the interval kernels the library exports no wrapper
   for (the verifier runs them on buffers), and the tests' own set
   helpers. *)
let run2 k (a : Verify.Interval.itv) (b : Verify.Interval.itv) =
  let lo = Float.Array.make 3 a.lo and hi = Float.Array.make 3 a.hi in
  Float.Array.set lo 1 b.lo;
  Float.Array.set hi 1 b.hi;
  k lo hi 2 0 1;
  itv (Float.Array.get lo 2) (Float.Array.get hi 2)

let sub = run2 (Verify.Interval.Kernel.sub Verify.Interval.P64)
let div = run2 (Verify.Interval.Kernel.div Verify.Interval.P64)
let add32 = run2 (Verify.Interval.Kernel.add Verify.Interval.P32)
let mul32 = run2 (Verify.Interval.Kernel.mul Verify.Interval.P32)
let top = itv Float.neg_infinity Float.infinity

let is_top (i : Verify.Interval.itv) =
  i.lo = Float.neg_infinity && i.hi = Float.infinity

let contains (i : Verify.Interval.itv) x = x >= i.lo && x <= i.hi

let interval_tests =
  [
    Alcotest.test_case "add intervals" `Quick (fun () ->
        let r = Verify.Interval.add (itv 1. 2.) (itv 10. 20.) in
        Alcotest.(check bool) "contains" true (contains r 11.);
        Alcotest.(check bool) "contains" true (contains r 22.);
        Alcotest.(check bool) "inflated" true (r.Verify.Interval.lo < 11.));
    Alcotest.test_case "mul with sign crossing" `Quick (fun () ->
        let r = Verify.Interval.mul (itv (-2.) 3.) (itv (-1.) 4.) in
        Alcotest.(check bool) "lo" true (r.Verify.Interval.lo <= -8.);
        Alcotest.(check bool) "hi" true (r.Verify.Interval.hi >= 12.));
    Alcotest.test_case "div by interval containing zero is top" `Quick (fun () ->
        Alcotest.(check bool)
          "top" true
          (is_top (div (itv 1. 2.) (itv (-1.) 1.))));
    Alcotest.test_case "operations on top stay top" `Quick (fun () ->
        Alcotest.(check bool)
          "top" true
          (is_top (Verify.Interval.add top (itv 0. 1.))));
    Alcotest.test_case "delta rewrite gets a finite static bound" `Quick (fun () ->
        match
          static_ulp_bound delta_spec
            ~rewrite:Kernels.Aek_kernels.delta_rewrite
        with
        | Ok a ->
          Alcotest.(check bool)
            (Printf.sprintf "bound %.1f finite and positive" a.Verify.Interval.bound_ulps)
            true
            (Float.is_finite a.Verify.Interval.bound_ulps
            && a.Verify.Interval.bound_ulps >= 0.)
        | Error e -> Alcotest.failf "not analyzable: %s" e);
    Alcotest.test_case "static bound is much weaker than validation (§6.3)" `Quick
      (fun () ->
        match
          static_ulp_bound delta_spec
            ~rewrite:Kernels.Aek_kernels.delta_rewrite
        with
        | Error e -> Alcotest.failf "not analyzable: %s" e
        | Ok a ->
          let e = Validate.Errfn.create delta_spec ~rewrite:Kernels.Aek_kernels.delta_rewrite in
          let config =
            { Validate.Driver.default_config with
              Validate.Driver.max_proposals = 30_000; min_samples = 5_000;
              check_every = 5_000 }
          in
          let v = Validate.Driver.run ~config ~eta:0L e in
          Alcotest.(check bool)
            (Printf.sprintf "static %.1f >> observed %s" a.Verify.Interval.bound_ulps
               (Ulp.to_string v.Validate.Driver.max_err))
            true
            (a.Verify.Interval.bound_ulps
             > 10. *. Ulp.to_float v.Validate.Driver.max_err));
    Alcotest.test_case "bit-level terms defeat interval analysis" `Quick (fun () ->
        match
          static_ulp_bound Kernels.Libimf.log_spec
            ~rewrite:Kernels.Libimf.log_spec.Sandbox.Spec.program
        with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error _ -> ());
    Alcotest.test_case "f32 ops widen on the binary32 grid (regression)" `Quick
      (fun () ->
        (* 1.0 +. 2^-24 rounds to 1.0 in binary32 (tie to even), a full
           f32-ulp below the exact sum.  The old double-ulp widening
           produced an interval a binary64 ulp wide around the exact sum,
           which does NOT contain the value the hardware computes. *)
        let p x = Verify.Interval.make x x in
        let tie = Float.pow 2. (-24.) in
        let hw =
          Int32.float_of_bits (Int32.bits_of_float (1.0 +. tie))
        in
        Alcotest.(check (float 0.)) "hardware rounds the tie to 1.0" 1.0 hw;
        let r = add32 (p 1.0) (p tie) in
        Alcotest.(check bool)
          (Printf.sprintf "[%h, %h] contains %h" r.Verify.Interval.lo
             r.Verify.Interval.hi hw)
          true
          (contains r hw);
        (* sanity: double-ulp widening around the exact sum indeed misses
           the hardware result, i.e. this test pins a real bug *)
        let exact = 1.0 +. tie in
        Alcotest.(check bool)
          "binary64 widening would be unsound" true
          (Fp64.pred exact > hw);
        (* and the binary64 variant still widens on the binary64 grid *)
        let r64 = Verify.Interval.add (p 1.0) (p tie) in
        Alcotest.(check bool)
          "f64 interval stays tight" true
          (not (contains r64 hw)));
    Alcotest.test_case "an overflowing operation keeps its infinity (regression)"
      `Quick (fun () ->
        (* Each exact result overflows its format, so the hardware result
           is ±∞, and widening must keep that infinity: one ordered index
           past ∞ is a NaN, and [0x1.fffffep+127, nan] neither reads as ⊤
           nor holds ∞. *)
        let p x = Verify.Interval.make x x in
        let open Verify.Interval in
        List.iter
          (fun (name, (r : itv), want) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s = [%h, %h] contains %h" name r.lo r.hi want)
              true (contains r want))
          [
            ("add32 3e38 3e38", add32 (p (Fp32.round 3e38)) (p (Fp32.round 3e38)),
             Float.infinity);
            ("mul32 1e20 1e20", mul32 (p (Fp32.round 1e20)) (p (Fp32.round 1e20)),
             Float.infinity);
            ("add 1e308 1e308", add (p 1e308) (p 1e308), Float.infinity);
            ("mul 1e200 1e200", mul (p 1e200) (p 1e200), Float.infinity);
            ("add32 -3e38 -3e38",
             add32 (p (Fp32.round (-3e38))) (p (Fp32.round (-3e38))),
             Float.neg_infinity);
            ("mul -1e200 1e200", mul (p (-1e200)) (p 1e200), Float.neg_infinity);
          ]);
  ]

(* ----- the interval kernels against the list-based definitions -----

   [Ref] is the record-and-list implementation the buffer kernels
   replaced, kept verbatim: four candidates folded with [Float.min] /
   [Float.max] from ±∞, NaN → ⊤, then one [Fp64]/[Fp32] step outward.
   Every kernel must reproduce it bit for bit, endpoints and NaNs
   included. *)
module Ref = struct
  type prec =
    | P32
    | P64

  let make lo hi = { Verify.Interval.lo; hi }
  let top = make Float.neg_infinity Float.infinity

  let is_top (i : Verify.Interval.itv) =
    i.lo = Float.neg_infinity && i.hi = Float.infinity

  let inflate prec (i : Verify.Interval.itv) =
    if is_top i then i
    else
      match prec with
      | P64 -> make (Fp64.pred i.lo) (Fp64.succ i.hi)
      | P32 -> make (Fp32.pred i.lo) (Fp32.succ i.hi)

  let lift2 prec f (a : Verify.Interval.itv) (b : Verify.Interval.itv) =
    if is_top a || is_top b then top
    else begin
      let candidates = [ f a.lo b.lo; f a.lo b.hi; f a.hi b.lo; f a.hi b.hi ] in
      let lo = List.fold_left Float.min Float.infinity candidates in
      let hi = List.fold_left Float.max Float.neg_infinity candidates in
      if Float.is_nan lo || Float.is_nan hi then top else inflate prec (make lo hi)
    end

  let div_p prec (a : Verify.Interval.itv) (b : Verify.Interval.itv) =
    if is_top a || is_top b then top
    else if b.lo <= 0. && b.hi >= 0. then top
    else lift2 prec ( /. ) a b

  let sqrt_p prec (a : Verify.Interval.itv) =
    if is_top a || a.lo < 0. then top
    else inflate prec (make (Float.sqrt a.lo) (Float.sqrt a.hi))

  let min (a : Verify.Interval.itv) (b : Verify.Interval.itv) =
    make (Float.min a.lo b.lo) (Float.min a.hi b.hi)

  let max (a : Verify.Interval.itv) (b : Verify.Interval.itv) =
    make (Float.max a.lo b.lo) (Float.max a.hi b.hi)

  let hull (a : Verify.Interval.itv) (b : Verify.Interval.itv) =
    make (Float.min a.lo b.lo) (Float.max a.hi b.hi)

  let mag (i : Verify.Interval.itv) = Float.max (Float.abs i.lo) (Float.abs i.hi)

  let contains (i : Verify.Interval.itv) x = x >= i.lo && x <= i.hi

  let pow (i : Verify.Interval.itv) k =
    if k = 1 then i
    else if is_top i then i
    else begin
      let k' = float_of_int k in
      let m = mag i in
      let hi = Fp64.succ (Float.pow m k') in
      let lo_mag = Float.min (Float.abs i.lo) (Float.abs i.hi) in
      if k mod 2 = 0 then
        make
          (if contains i 0. then 0. else Fp64.pred (Float.pow lo_mag k'))
          hi
      else
        make (Fp64.pred (Float.pow i.lo k')) (Fp64.succ (Float.pow i.hi k'))
    end
end

(* Endpoints: signed zeros, infinities, NaNs of both signs, subnormals,
   the extremes of both formats, and random values over a wide range of
   exponents. *)
let special_endpoints =
  [|
    0.; -0.; 1.; -1.; Float.infinity; Float.neg_infinity; Float.nan;
    Int64.float_of_bits 0xfff8_0000_0000_0001L; 4.9e-324; -4.9e-324;
    Int64.float_of_bits 0x000f_ffff_ffff_ffffL; -2.2250738585072014e-308;
    Float.max_float; -.Float.max_float; Int32.float_of_bits 1l;
    Int32.float_of_bits 0x7f7f_ffffl; 0x1p-149; 0x1p-126; 0.5; 3.;
  |]

let random_endpoint st =
  match Random.State.int st 4 with
  | 0 -> special_endpoints.(Random.State.int st (Array.length special_endpoints))
  | 1 -> Int64.float_of_bits (Random.State.bits64 st)
  | 2 ->
    let x = Random.State.float st 1. in
    let e = Random.State.int st 80 - 40 in
    (if Random.State.bool st then x else -.x) *. Float.pow 2. (float_of_int e)
  | _ ->
    (* a binary32 value, where P32 widening snaps to its own grid *)
    Int32.float_of_bits (Random.State.int32 st Int32.max_int)
    *. if Random.State.bool st then 1. else -1.

let random_itv st =
  match Random.State.int st 8 with
  | 0 -> Ref.top
  | 1 ->
    (* spans zero, touches it, or sits on one signed zero *)
    let x = Float.abs (random_endpoint st) in
    (match Random.State.int st 4 with
     | 0 -> Ref.make (-.x) x
     | 1 -> Ref.make 0. x
     | 2 -> Ref.make (-.x) (-0.)
     | _ -> Ref.make (-0.) 0.)
  | 2 ->
    let x = random_endpoint st in
    Ref.make x x
  | 3 -> Ref.make (random_endpoint st) (random_endpoint st)
  | _ ->
    let a = random_endpoint st and b = random_endpoint st in
    if a <= b then Ref.make a b else Ref.make b a

let same_bits (x : Verify.Interval.itv) (y : Verify.Interval.itv) =
  Int64.equal (Int64.bits_of_float x.lo) (Int64.bits_of_float y.lo)
  && Int64.equal (Int64.bits_of_float x.hi) (Int64.bits_of_float y.hi)

let show (i : Verify.Interval.itv) = Printf.sprintf "[%h, %h]" i.lo i.hi

(* One kernel on buffers: operands in slots 1 and 2, result in slot 0,
   then again in place over its first operand. *)
let via_kernel2 k (a : Verify.Interval.itv) (b : Verify.Interval.itv) =
  let lo = Float.Array.of_list [ 0.; a.lo; b.lo ]
  and hi = Float.Array.of_list [ 0.; a.hi; b.hi ] in
  k lo hi 0 1 2;
  let out = Ref.make (Float.Array.get lo 0) (Float.Array.get hi 0) in
  k lo hi 1 1 2;
  let in_place = Ref.make (Float.Array.get lo 1) (Float.Array.get hi 1) in
  (out, in_place)

let kernel_pairs = 20_000

(* Doubles near every binade edge (powers of 2 and their neighbours),
   the subnormal boundary and the thresholds of the kernels' fast paths,
   plus random bit patterns. *)
let neighbour_samples st =
  let edges =
    List.concat_map
      (fun e ->
        let p = Float.ldexp 1. e in
        [ p; Fp64.pred p; Fp64.succ p; 1.5 *. p ])
      (List.init 2098 (fun i -> i - 1074))
  in
  let specials = Array.to_list special_endpoints in
  let random = List.init 200_000 (fun _ -> Int64.float_of_bits (Random.State.bits64 st)) in
  List.concat_map (fun x -> [ x; -.x ]) (edges @ specials @ random)

let kernel_tests =
  let module K = Verify.Interval.Kernel in
  let open Verify.Interval in
  let binops =
    [
      ("add", add, K.add P64, Ref.lift2 Ref.P64 ( +. ));
      ("sub", sub, K.sub P64, Ref.lift2 Ref.P64 ( -. ));
      ("mul", mul, K.mul P64, Ref.lift2 Ref.P64 ( *. ));
      ("div", div, K.div P64, Ref.div_p Ref.P64);
      ("add32", add32, K.add P32, Ref.lift2 Ref.P32 ( +. ));
      ( "sub32",
        (fun a b -> fst (via_kernel2 (K.sub P32) a b)),
        K.sub P32,
        Ref.lift2 Ref.P32 ( -. ) );
      ("mul32", mul32, K.mul P32, Ref.lift2 Ref.P32 ( *. ));
      ( "div32",
        (fun a b -> fst (via_kernel2 (K.div P32) a b)),
        K.div P32,
        Ref.div_p Ref.P32 );
      ("hull", hull, K.hull, Ref.hull);
      ("min", (fun a b -> fst (via_kernel2 K.min a b)), K.min, Ref.min);
      ("max", (fun a b -> fst (via_kernel2 K.max a b)), K.max, Ref.max);
    ]
  in
  [
    Alcotest.test_case "widening steps to Fp64/Fp32 neighbours bit for bit"
      `Quick (fun () ->
        let st = Random.State.make [| 7; 4 |] in
        let lo = Float.Array.make 1 0. and hi = Float.Array.make 1 0. in
        List.iter
          (fun x ->
            List.iter
              (fun (prec, pred, succ) ->
                Float.Array.set lo 0 x;
                Float.Array.set hi 0 x;
                K.widen prec lo hi 0;
                let got = Ref.make (Float.Array.get lo 0) (Float.Array.get hi 0) in
                let want = Ref.make (pred x) (succ x) in
                if not (same_bits want got) then
                  Alcotest.failf "widen %h: %s, want %s" x (show got) (show want))
              [ (P64, Fp64.pred, Fp64.succ); (P32, Fp32.pred, Fp32.succ) ])
          (neighbour_samples st));
    Alcotest.test_case
      "kernels match the list-based definitions bit for bit" `Quick
      (fun () ->
        let st = Random.State.make [| 20; 14 |] in
        let spans = ref 0 and tops = ref 0 and nans = ref 0 in
        for _ = 1 to kernel_pairs do
          let a = random_itv st and b = random_itv st in
          if b.lo < 0. && b.hi > 0. then incr spans;
          if Ref.is_top a || Ref.is_top b then incr tops;
          if Float.is_nan a.lo || Float.is_nan b.hi then incr nans;
          List.iter
            (fun (name, record_op, kernel, reference) ->
              let want = reference a b in
              let got = record_op a b in
              let out, in_place = via_kernel2 kernel a b in
              List.iter
                (fun (how, got) ->
                  if not (same_bits want got) then
                    Alcotest.failf "%s (%s) %s %s: %s, want %s" name how
                      (show a) (show b) (show got) (show want))
                [ ("record", got); ("kernel", out); ("in place", in_place) ])
            binops;
          List.iter
            (fun (name, prec, ref_prec) ->
              let want = Ref.sqrt_p ref_prec a in
              let lo = Float.Array.of_list [ 0.; a.lo ]
              and hi = Float.Array.of_list [ 0.; a.hi ] in
              K.sqrt prec lo hi 0 1;
              let got = Ref.make (Float.Array.get lo 0) (Float.Array.get hi 0) in
              if not (same_bits want got) then
                Alcotest.failf "%s %s: %s, want %s" name (show a) (show got)
                  (show want))
            [ ("sqrt", P64, Ref.P64); ("sqrt32", P32, Ref.P32) ];
          let k = 1 + Random.State.int st 6 in
          let lo = Float.Array.of_list [ a.lo ]
          and hi = Float.Array.of_list [ a.hi ] in
          K.pow lo hi 0 0 k;
          let got = Ref.make (Float.Array.get lo 0) (Float.Array.get hi 0) in
          let want = Ref.pow a k in
          if not (same_bits want got) then
            Alcotest.failf "pow %s^%d: %s, want %s" (show a) k (show got)
              (show want)
        done;
        (* the generator reached the cases the definitions single out *)
        Alcotest.(check bool)
          (Printf.sprintf "%d divisors span 0, %d pairs hold ⊤, %d NaN ends"
             !spans !tops !nans)
          true
          (!spans > 1000 && !tops > 1000 && !nans > 100));
  ]

(* ----- Taylor-form round-off bounds ----- *)

(* Deterministic branch-and-bound: budget by boxes, never by wall clock. *)
let det_config =
  { Verify.Bbound.default_config with Verify.Bbound.timeout_s = 0. }

(* Largest absolute output difference between target and rewrite on one
   input vector, by running both programs in the sandbox. *)
let observed_abs_error (spec : Sandbox.Spec.t) rewrite xs =
  let tc = Sandbox.Spec.testcase_of_floats spec xs in
  let run p =
    let m, r =
      Sandbox.Exec.run_testcase ~mem_size:spec.Sandbox.Spec.mem_size p tc
    in
    (match r.Sandbox.Exec.outcome with
     | Sandbox.Exec.Finished -> ()
     | Sandbox.Exec.Faulted _ -> Alcotest.fail "program faulted");
    Sandbox.Spec.read_outputs spec m
  in
  let vt = run spec.Sandbox.Spec.program and vr = run rewrite in
  let worst = ref 0. in
  Array.iter2
    (fun a b ->
      match a, b with
      | Sandbox.Spec.Vf64 x, Sandbox.Spec.Vf64 y
      | Sandbox.Spec.Vf32 x, Sandbox.Spec.Vf32 y ->
        worst := Float.max !worst (Float.abs (x -. y))
      | _ -> Alcotest.fail "output type mismatch")
    vt vr;
  !worst

(* The sound bound back in absolute terms, using the same unit the
   analysis divided by. *)
let sound_abs_of (spec : Sandbox.Spec.t) (a : Verify.Taylor.analysis) =
  let single =
    List.exists
      (fun o ->
        match o with
        | Sandbox.Spec.Out_xmm_f32 _ | Sandbox.Spec.Out_xmm_f32_hi _ -> true
        | _ -> false)
      spec.Sandbox.Spec.outputs
  in
  a.Verify.Taylor.sound_ulps
  *. Verify.Interval.ulp_size_at
       (Verify.Interval.mag a.Verify.Taylor.target_range)
       ~single

let check_sound_on_samples ?(n = 200) name spec rewrite =
  match taylor_bound ~config:det_config spec ~rewrite with
  | Error e -> Alcotest.failf "%s: not analyzable: %s" name e
  | Ok a ->
    let sound_abs = sound_abs_of spec a in
    let g = Rng.Xoshiro256.create 42L in
    for _ = 1 to n do
      let xs = Sandbox.Spec.random_floats g spec in
      let obs = observed_abs_error spec rewrite xs in
      if obs > sound_abs then
        Alcotest.failf "%s: observed |diff| %h exceeds sound bound %h" name
          obs sound_abs
    done

(* A binary64 square root against the same root taken in binary32. *)
let sqrt64_spec =
  Sandbox.Spec.make ~name:"sqrt64"
    ~program:(Parser.parse_program_exn "sqrtsd xmm0, xmm0")
    ~float_inputs:
      [ Sandbox.Spec.Fin_xmm_f64 (Reg.Xmm0, { Sandbox.Spec.lo = 1.; hi = 4. }) ]
    ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
    ()

let sqrt64_rewrite =
  Parser.parse_program_exn
    "cvtsd2ss xmm0, xmm1\nsqrtss xmm1, xmm1\ncvtss2sd xmm1, xmm0"

(* The interval tier takes the narrowing conversion as one binary32
   rounding, so the pair gets a static bound, in the analysis's own
   units at least the largest error seen on 10k sampled inputs. *)
let interval_tests =
  interval_tests
  @ [
      Alcotest.test_case "a conversion pair gets a sound static bound" `Quick
        (fun () ->
          match static_ulp_bound sqrt64_spec ~rewrite:sqrt64_rewrite with
          | Error e -> Alcotest.failf "not analyzable: %s" e
          | Ok a ->
            let u =
              Verify.Interval.ulp_size_at
                (Verify.Interval.mag a.Verify.Interval.target_range)
                ~single:false
            in
            let g = Rng.Xoshiro256.create 7L in
            let worst = ref 0. in
            for _ = 1 to 10_000 do
              let xs = Sandbox.Spec.random_floats g sqrt64_spec in
              worst := Float.max !worst (observed_abs_error sqrt64_spec sqrt64_rewrite xs /. u)
            done;
            Alcotest.(check bool)
              (Printf.sprintf "bound %.4g >= observed %.4g ulps"
                 a.Verify.Interval.bound_ulps !worst)
              true
              (!worst > 0. && a.Verify.Interval.bound_ulps >= !worst));
    ]

let taylor_tests =
  [
    Alcotest.test_case "identical programs prove real-equal with bound 0" `Quick
      (fun () ->
        match
          taylor_bound ~config:det_config delta_spec
            ~rewrite:delta_spec.Sandbox.Spec.program
        with
        | Error e -> Alcotest.failf "not analyzable: %s" e
        | Ok a ->
          Alcotest.(check (float 0.)) "zero" 0. a.Verify.Taylor.sound_ulps;
          Alcotest.(check bool) "real-equal" true
            a.Verify.Taylor.proved_real_equal);
    Alcotest.test_case "sin reassociation: tight bound, >= 10x over interval"
      `Quick (fun () ->
        let spec = Kernels.Libimf.sin_spec in
        let rewrite = Kernels.Libimf.sin_assoc_rewrite in
        match
          ( taylor_bound ~config:det_config spec ~rewrite,
            static_ulp_bound spec ~rewrite )
        with
        | Error e, _ -> Alcotest.failf "taylor: %s" e
        | _, Error e -> Alcotest.failf "interval: %s" e
        | Ok t, Ok i ->
          Alcotest.(check bool)
            "reassociation cancels in the polynomial normal form" true
            t.Verify.Taylor.proved_real_equal;
          Alcotest.(check bool)
            (Printf.sprintf "taylor %.3g ULPs is a handful"
               t.Verify.Taylor.sound_ulps)
            true
            (t.Verify.Taylor.sound_ulps < 10.);
          Alcotest.(check bool)
            (Printf.sprintf "taylor %.3g at least 10x tighter than interval %.3g"
               t.Verify.Taylor.sound_ulps i.Verify.Interval.bound_ulps)
            true
            (t.Verify.Taylor.sound_ulps *. 10. <= i.Verify.Interval.bound_ulps));
    Alcotest.test_case "delta rewrite: finite bound, tighter than interval"
      `Quick (fun () ->
        match
          ( taylor_bound ~config:det_config delta_spec
              ~rewrite:Kernels.Aek_kernels.delta_rewrite,
            static_ulp_bound delta_spec
              ~rewrite:Kernels.Aek_kernels.delta_rewrite )
        with
        | Error e, _ -> Alcotest.failf "taylor: %s" e
        | _, Error e -> Alcotest.failf "interval: %s" e
        | Ok t, Ok i ->
          Alcotest.(check bool)
            (Printf.sprintf "finite (%.3g)" t.Verify.Taylor.sound_ulps)
            true
            (Float.is_finite t.Verify.Taylor.sound_ulps);
          Alcotest.(check bool)
            (Printf.sprintf "taylor %.3g at least 10x tighter than interval %.3g"
               t.Verify.Taylor.sound_ulps i.Verify.Interval.bound_ulps)
            true
            (t.Verify.Taylor.sound_ulps *. 10. <= i.Verify.Interval.bound_ulps));
    Alcotest.test_case "observed error never exceeds the sound bound" `Quick
      (fun () ->
        check_sound_on_samples "sin_assoc" Kernels.Libimf.sin_spec
          Kernels.Libimf.sin_assoc_rewrite;
        check_sound_on_samples "delta" delta_spec
          Kernels.Aek_kernels.delta_rewrite;
        check_sound_on_samples "sqrt64" sqrt64_spec sqrt64_rewrite);
    Alcotest.test_case "deeper branch-and-bound never loosens the bound"
      `Quick (fun () ->
        let bound_at depth =
          match
            taylor_bound
              ~config:{ det_config with Verify.Bbound.max_depth = depth }
              Kernels.Libimf.sin_spec ~rewrite:Kernels.Libimf.sin_assoc_rewrite
          with
          | Ok a -> a.Verify.Taylor.sound_ulps
          | Error e -> Alcotest.failf "depth %d: %s" depth e
        in
        let bounds = List.map bound_at [ 0; 2; 4; 8; 12 ] in
        let rec check_monotone = function
          | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "%.6g >= %.6g" a b)
              true (a >= b);
            check_monotone rest
          | _ -> ()
        in
        check_monotone bounds;
        (* and subdivision actually buys something on this kernel *)
        Alcotest.(check bool) "depth tightened the root bound" true
          (List.nth bounds 4 < List.hd bounds));
    Alcotest.test_case "bit-level float flow defeats the Taylor tier" `Quick
      (fun () ->
        match
          taylor_bound Kernels.Libimf.log_spec
            ~rewrite:Kernels.Libimf.log_spec.Sandbox.Spec.program
        with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error _ -> ());
  ]

(* Random Horner-polynomial pairs: the target evaluates a random
   polynomial, the rewrite drops its lowest-order term, and the sound
   bounds of BOTH numeric analyses must cover the error actually observed
   on random inputs — the end-to-end soundness harness. *)
let horner_arb =
  let open QCheck in
  let coeff = float_range (-2.) 2. in
  pair (list_of_size (Gen.int_range 2 5) coeff) (float_range 0.25 4.)

let horner_usable coeffs =
  List.length coeffs >= 2 && List.for_all (fun c -> Float.abs c > 1e-6) coeffs

(* The spec of a random Horner polynomial over [-half_range, half_range]
   and the rewrite that drops its lowest-order term. *)
let horner_pair coeffs half_range =
  let x = Reg.Xmm0 and acc = Reg.Xmm1 and tmp = Reg.Xmm2 in
  let via = Reg.Rax in
  let horner cs =
    Kernels.Builder.program
      [
        Kernels.Builder.horner_f64 ~x ~acc ~tmp ~via cs;
        [ Kernels.Builder.binop Opcode.Movsd (Kernels.Builder.xmm acc)
            (Kernels.Builder.xmm x) ];
      ]
  in
  let target = horner coeffs in
  let rewrite = horner (List.filteri (fun i _ -> i > 0) coeffs) in
  let spec =
    Sandbox.Spec.make ~name:"randpoly" ~program:target
      ~float_inputs:
        [ Sandbox.Spec.Fin_xmm_f64
            (x, { Sandbox.Spec.lo = -.half_range; hi = half_range }) ]
      ~outputs:[ Sandbox.Spec.Out_xmm_f64 x ]
      ()
  in
  (spec, rewrite)

let prop_taylor_sound_random_programs =
  let open QCheck in
  Test.make ~name:"taylor and interval bounds cover sampled error" ~count:30
    horner_arb (fun (coeffs, half_range) ->
      QCheck.assume (horner_usable coeffs);
      let spec, rewrite = horner_pair coeffs half_range in
      let sound_abs =
        match taylor_bound ~config:det_config spec ~rewrite with
        | Ok a -> sound_abs_of spec a
        | Error e -> Test.fail_reportf "taylor: %s" e
      in
      let interval_abs =
        match static_ulp_bound spec ~rewrite with
        | Ok a ->
          a.Verify.Interval.bound_ulps
          *. Verify.Interval.ulp_size_at
               (Verify.Interval.mag a.Verify.Interval.target_range)
               ~single:false
        | Error e -> Test.fail_reportf "interval: %s" e
      in
      let g = Rng.Xoshiro256.create 7L in
      let ok = ref true in
      for _ = 1 to 50 do
        let xs = Sandbox.Spec.random_floats g spec in
        let obs = observed_abs_error spec rewrite xs in
        if obs > sound_abs || obs > interval_abs then ok := false
      done;
      !ok)

(* ----- pinned Taylor analyses -----

   The shipped pairs use only add, sub and mul, so these small programs
   drive the other adjoint rules: divsd; t/t and t−t for a rounded t,
   whose two operand bumps land on one node in a fixed order (the inputs
   are chosen so that the order reaches the bound's bits); sqrtss;
   minss/maxss;
   and the cvtsd2ss/cvtss2sd round trip, plus a seeded batch of random
   Horner pairs.  Each row is [sound_ulps]'s bits, boxes explored, depth
   reached and [proved_real_equal], as the record-and-list analysis
   computed them; a change to the order or the operands of any interval
   operation moves the bits.  The binary64 square root, [sqrt64], is
   pinned through [Verifier.check] on its own. *)

let fin64 r lo hi = Sandbox.Spec.Fin_xmm_f64 (r, { Sandbox.Spec.lo; hi })
let fin32 r lo hi = Sandbox.Spec.Fin_xmm_f32 (r, { Sandbox.Spec.lo; hi })
let asm = Parser.parse_program_exn

let adjoint_pairs =
  [
    ( "div",
      Sandbox.Spec.make ~name:"div"
        ~program:
          (asm
             {|
               movaps xmm0, xmm2
               addsd xmm1, xmm2
               movaps xmm2, xmm3
               divsd xmm3, xmm3
               movaps xmm2, xmm4
               subsd xmm4, xmm4
               divsd xmm1, xmm0
               addsd xmm3, xmm0
               addsd xmm4, xmm0
               mulsd xmm2, xmm0
             |})
        ~float_inputs:[ fin64 Reg.Xmm0 0.5 2.; fin64 Reg.Xmm1 1. 3. ]
        ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ] (),
      asm
        {|
          movaps xmm0, xmm2
          addsd xmm1, xmm2
          addsd xmm1, xmm0
          divsd xmm1, xmm0
          mulsd xmm2, xmm0
        |} );
    ( "div-self",
      Sandbox.Spec.make ~name:"div-self"
        ~program:
          (asm
             {|
               movaps xmm0, xmm2
               addsd xmm1, xmm2
               movaps xmm2, xmm3
               divsd xmm3, xmm3
               movaps xmm2, xmm4
               subsd xmm4, xmm4
               addsd xmm4, xmm3
               mulsd xmm1, xmm0
               addsd xmm0, xmm3
               addsd xmm1, xmm3
               movaps xmm3, xmm0
             |})
        ~float_inputs:[ fin64 Reg.Xmm0 0.01 100.; fin64 Reg.Xmm1 0.01 100. ]
        ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ] (),
      asm
        {|
          movaps xmm0, xmm2
          addsd xmm1, xmm2
          movaps xmm2, xmm3
          divsd xmm3, xmm3
          movaps xmm2, xmm4
          subsd xmm4, xmm4
          mulsd xmm1, xmm0
          addsd xmm1, xmm0
          addsd xmm4, xmm0
          addsd xmm3, xmm0
        |} );
    (* t = 2^1000·x: t − t's round-off is the bound's largest term *)
    ( "sub-self",
      Sandbox.Spec.make ~name:"sub-self"
        ~program:
          (asm
             {|
               movabs $0x7e70000000000000, rax
               movq rax, xmm5
               mulsd xmm0, xmm5
               movaps xmm5, xmm4
               subsd xmm4, xmm4
               mulsd xmm1, xmm0
               addsd xmm4, xmm0
             |})
        ~float_inputs:[ fin64 Reg.Xmm0 0.5 2.; fin64 Reg.Xmm1 1. 3. ]
        ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ] (),
      asm {|
        mulsd xmm1, xmm0
      |} );
    ( "sqrt",
      Sandbox.Spec.make ~name:"sqrt"
        ~program:(asm {|
          mulss xmm1, xmm0
          sqrtss xmm0, xmm0
        |})
        ~float_inputs:[ fin32 Reg.Xmm0 1. 4.; fin32 Reg.Xmm1 0.25 2. ]
        ~outputs:[ Sandbox.Spec.Out_xmm_f32 Reg.Xmm0 ] (),
      asm
        {|
          sqrtss xmm0, xmm0
          sqrtss xmm1, xmm1
          mulss xmm1, xmm0
        |} );
    ( "minmax",
      Sandbox.Spec.make ~name:"minmax"
        ~program:
          (asm
             {|
               minss xmm1, xmm0
               maxss xmm2, xmm0
               mulss xmm1, xmm0
             |})
        ~float_inputs:
          [ fin32 Reg.Xmm0 (-2.) 2.; fin32 Reg.Xmm1 0.5 1.5;
            fin32 Reg.Xmm2 (-1.) 1. ]
        ~outputs:[ Sandbox.Spec.Out_xmm_f32 Reg.Xmm0 ] (),
      asm
        {|
          mulss xmm1, xmm2
          minss xmm1, xmm0
          mulss xmm1, xmm0
          maxss xmm2, xmm0
        |} );
    ( "cvt",
      Sandbox.Spec.make ~name:"cvt"
        ~program:
          (asm
             {|
               cvtsd2ss xmm0, xmm1
               addss xmm1, xmm1
               cvtss2sd xmm1, xmm0
             |})
        ~float_inputs:[ fin64 Reg.Xmm0 0.5 2. ]
        ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ] (),
      asm
        {|
          addsd xmm0, xmm0
          cvtsd2ss xmm0, xmm1
          cvtss2sd xmm1, xmm0
        |} );
  ]

(* name, sound_ulps bits, boxes explored, depth, proved_real_equal *)
let expected_adjoint_pins =
  [
    ("div", 4819314172295951709L (* 0x1.1a4b4b4b4b55dp+47 *), 2002, 10, false);
    ("div-self", 4614049000495414385L (* 0x1.8651ea2c67c71p+1 *), 82, 10, true);
    ("sub-self", 4591419820104220811L (* 0x1.800000000008bp-4 *), 2002, 10, true);
    ("sqrt", 4693453368540984924L (* 0x1.27ef8c1bef65cp+19 *), 2002, 10, false);
    ("minmax", 4702039489172734011L (* 0x1.10000c000003bp+21 *), 2002, 10, false);
    ("cvt", 4740038607945859078L (* 0x1.8000008400006p+29 *), 42, 10, true);
  ]

(* the first eight usable draws of [horner_arb] from this seed *)
let horner_seed = 2014

let expected_horner_pins =
  [
    ("horner0", 4842613723455811532L (* 0x1.46b863303efccp+52 *), 78, 10, false);
    ("horner1", 4837253714879038008L (* 0x1.1609ff3cdc238p+51 *), 78, 10, false);
    ("horner2", 4841315470038802166L (* 0x1.fcec505441ef6p+51 *), 78, 10, false);
    ("horner3", 4831855857461468427L (* 0x1.e334d55e19d0bp+49 *), 78, 10, false);
    ("horner4", 4836683809383962796L (* 0x1.f5a4c7d36d8acp+50 *), 78, 10, false);
    ("horner5", 4835360339090217920L (* 0x1.aa69c0c7c1bcp+50 *), 78, 10, false);
    ("horner6", 4842708916137514384L (* 0x1.4c219f8fe559p+52 *), 78, 10, false);
    ("horner7", 4842794463784664433L (* 0x1.50fe8161cfd71p+52 *), 78, 10, false);
  ]

let horner_batch () =
  let rand = Random.State.make [| horner_seed |] in
  let draws = QCheck.Gen.generate ~rand ~n:8 (QCheck.gen horner_arb) in
  List.mapi
    (fun i (coeffs, half_range) ->
      if not (horner_usable coeffs) then
        Alcotest.failf "horner%d: the seeded draw is not usable" i;
      let spec, rewrite = horner_pair coeffs half_range in
      (Printf.sprintf "horner%d" i, spec, rewrite))
    draws

let check_pin name (a : Verify.Taylor.analysis) (bits, boxes, depth, real_equal) =
  let got =
    ( Int64.bits_of_float a.Verify.Taylor.sound_ulps,
      a.Verify.Taylor.boxes_explored,
      a.Verify.Taylor.depth,
      a.Verify.Taylor.proved_real_equal )
  in
  if got <> (bits, boxes, depth, real_equal) then
    Alcotest.failf
      "%s: sound %h, %d boxes, depth %d, real-equal %b; pinned %h, %d, %d, %b"
      name a.Verify.Taylor.sound_ulps a.Verify.Taylor.boxes_explored
      a.Verify.Taylor.depth a.Verify.Taylor.proved_real_equal
      (Int64.float_of_bits bits) boxes depth real_equal

let check_pins pairs expected =
  List.iter2
    (fun (name, spec, rewrite) (name', bits, boxes, depth, real_equal) ->
      Alcotest.(check string) "pin order" name' name;
      match taylor_bound ~config:det_config spec ~rewrite with
      | Error e -> Alcotest.failf "%s: not analyzable: %s" name e
      | Ok a -> check_pin name a (bits, boxes, depth, real_equal))
    pairs expected

(* sqrt64's sound_ulps bits, boxes, depth, proved_real_equal *)
let expected_sqrt64_pin =
  (4735535833476847868L (* 0x1.800c0278558fcp+28 *), 42, 10, true)

(* Minor words [Taylor.bound] may allocate per explored box, its setup
   included (the symbolic execution before it is not).  An evaluation writes only its tape; what remains is the
   branch-and-bound's boxes and queue items and the analysis's one-time
   setup.  The record-and-list objective allocated about 12,000 (sin)
   and 14,000 (delta) words a box. *)
let bound_words_per_box = 512.

let taylor_pin_tests =
  [
    Alcotest.test_case "adjoint rules no shipped pair reaches are pinned"
      `Quick (fun () ->
        check_pins adjoint_pairs expected_adjoint_pins);
    Alcotest.test_case "a seeded random-Horner batch is pinned" `Quick
      (fun () -> check_pins (horner_batch ()) expected_horner_pins);
    Alcotest.test_case "Taylor.bound allocates at most 512 words a box"
      `Quick (fun () ->
        List.iter
          (fun (name, spec, rewrite) ->
            let pair =
              match Verify.Symbolic.exec_pair spec ~rewrite with
              | Ok pair -> pair
              | Error e -> Alcotest.failf "%s: %s" name e
            in
            let bound () =
              match Verify.Taylor.bound ~config:det_config spec pair with
              | Ok a -> a
              | Error e -> Alcotest.failf "%s: %s" name e
            in
            ignore (bound ());
            let before = Gc.minor_words () in
            let a = bound () in
            let per_box =
              (Gc.minor_words () -. before)
              /. float_of_int a.Verify.Taylor.boxes_explored
            in
            if per_box > bound_words_per_box then
              Alcotest.failf "%s: %.0f minor words per box (bound %.0f)" name
                per_box bound_words_per_box)
          [
            ("sin_assoc", Kernels.Libimf.sin_spec,
             Kernels.Libimf.sin_assoc_rewrite);
            ("delta", delta_spec, Kernels.Aek_kernels.delta_rewrite);
          ]);
    Alcotest.test_case "a binary64 square root reaches the Taylor tier" `Quick
      (fun () ->
        match
          Verify.Verifier.check ~taylor:det_config sqrt64_spec
            ~rewrite:sqrt64_rewrite ~eta:0L
        with
        | Verify.Verifier.Taylor_bound a ->
          check_pin "sqrt64" a expected_sqrt64_pin
        | o ->
          Alcotest.failf "unexpected: %s" (Verify.Verifier.outcome_to_string o));
  ]

(* soundness property: for random concrete points inside the operand
   intervals, the concrete result lies inside the abstract result *)
let prop_interval_sound =
  let pair_range = QCheck.float_range (-1e3) 1e3 in
  let gen = QCheck.(triple (pair pair_range pair_range) (pair pair_range pair_range) (pair (float_range 0. 1.) (float_range 0. 1.))) in
  QCheck.Test.make ~name:"interval arithmetic is sound on samples" ~count:500 gen
    (fun ((a1, a2), (b1, b2), (ta, tb)) ->
      let ia = { Verify.Interval.lo = Float.min a1 a2; hi = Float.max a1 a2 } in
      let ib = { Verify.Interval.lo = Float.min b1 b2; hi = Float.max b1 b2 } in
      let xa = ia.Verify.Interval.lo +. (ta *. Verify.Interval.width ia) in
      let xb = ib.Verify.Interval.lo +. (tb *. Verify.Interval.width ib) in
      contains (Verify.Interval.add ia ib) (xa +. xb)
      && contains (sub ia ib) (xa -. xb)
      && contains (Verify.Interval.mul ia ib) (xa *. xb)
      && (is_top (div ia ib)
          || contains (div ia ib) (xa /. xb)))

(* agreement property: when the symbolic executor supports a program and
   claims bit-wise equivalence, the interpreter agrees on random inputs *)
let prop_symbolic_agrees_with_interpreter =
  QCheck.Test.make ~name:"proved-equivalent programs agree concretely" ~count:200
    QCheck.int64 (fun seed ->
      let g = Rng.Xoshiro256.create seed in
      let spec = Kernels.Aek_kernels.dot_spec in
      let xs = Sandbox.Spec.random_floats g spec in
      let e = Validate.Errfn.create spec ~rewrite:Kernels.Aek_kernels.dot_rewrite in
      Int64.equal (Validate.Errfn.eval_ulp e xs) 0L)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_interval_sound;
      prop_symbolic_agrees_with_interpreter;
      prop_taylor_sound_random_programs;
    ]

(* ----- FPCore export ----- *)

let fpcore_tests =
  [
    Alcotest.test_case "sin pair exports a well-formed difference" `Quick
      (fun () ->
        match
          fpcore_difference Kernels.Libimf.sin_spec
            ~rewrite:Kernels.Libimf.sin_assoc_rewrite
        with
        | Error e -> Alcotest.failf "export failed: %s" e
        | Ok s ->
          let contains needle =
            let nl = String.length needle and sl = String.length s in
            let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "FPCore header" true (contains "(FPCore");
          Alcotest.(check bool) "precision annotation" true
            (contains ":precision binary64");
          Alcotest.(check bool) "input range precondition" true (contains ":pre"));
    Alcotest.test_case "identical terms export the zero difference" `Quick
      (fun () ->
        match
          fpcore_difference dot_spec
            ~rewrite:Kernels.Aek_kernels.dot_rewrite
        with
        | Error e -> Alcotest.failf "export failed: %s" e
        | Ok s ->
          let contains needle =
            let nl = String.length needle and sl = String.length s in
            let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "body is the literal zero" true (contains " 0)"));
    Alcotest.test_case "bit-level kernels are not exportable" `Quick (fun () ->
        match
          fpcore_difference Kernels.Libimf.log_spec
            ~rewrite:Kernels.Libimf.log_spec.Sandbox.Spec.program
        with
        | Ok _ -> Alcotest.fail "expected Not_exportable"
        | Error _ -> ());
  ]

let verifier_tests =
  [
    Alcotest.test_case "dispatch proves dot bitwise" `Quick (fun () ->
        match
          Verify.Verifier.check dot_spec ~rewrite:Kernels.Aek_kernels.dot_rewrite ~eta:0L
        with
        | Verify.Verifier.Proved_bitwise -> ()
        | o -> Alcotest.failf "unexpected: %s" (Verify.Verifier.outcome_to_string o));
    Alcotest.test_case "dispatch bounds delta with the Taylor tier" `Quick
      (fun () ->
        match
          Verify.Verifier.check delta_spec ~rewrite:Kernels.Aek_kernels.delta_rewrite
            ~eta:0L
        with
        | Verify.Verifier.Taylor_bound a ->
          (* min-clamped against the interval tier: never looser *)
          (match
             static_ulp_bound delta_spec
               ~rewrite:Kernels.Aek_kernels.delta_rewrite
           with
           | Error e -> Alcotest.failf "interval tier: %s" e
           | Ok i ->
             Alcotest.(check bool)
               (Printf.sprintf "taylor %.3g <= interval %.3g"
                  a.Verify.Taylor.sound_ulps i.Verify.Interval.bound_ulps)
               true
               (a.Verify.Taylor.sound_ulps <= i.Verify.Interval.bound_ulps))
        | o -> Alcotest.failf "unexpected: %s" (Verify.Verifier.outcome_to_string o));
    Alcotest.test_case "dispatch proves libimf self-pairs bitwise" `Quick (fun () ->
        match
          Verify.Verifier.check Kernels.Libimf.log_spec
            ~rewrite:Kernels.Libimf.log_spec.Sandbox.Spec.program ~eta:0L
        with
        | Verify.Verifier.Proved_bitwise -> ()
        | o -> Alcotest.failf "unexpected: %s" (Verify.Verifier.outcome_to_string o));
    Alcotest.test_case "dispatch gives up outside the fragment" `Quick (fun () ->
        let p =
          Parser.parse_program_exn "ucomisd xmm1, xmm0\naddsd xmm1, xmm0"
        in
        match Verify.Verifier.check Kernels.Libimf.sin_spec ~rewrite:p ~eta:0L with
        | Verify.Verifier.Not_verifiable _ -> ()
        | o -> Alcotest.failf "unexpected: %s" (Verify.Verifier.outcome_to_string o));
    Alcotest.test_case "verified_within semantics" `Quick (fun () ->
        Alcotest.(check bool)
          "bitwise within any eta" true
          (Verify.Verifier.verified_within Verify.Verifier.Proved_bitwise 0L);
        Alcotest.(check bool)
          "refuted never" false
          (Verify.Verifier.verified_within Verify.Verifier.Refuted_bitwise Ulp.max_value));
  ]

let () =
  Alcotest.run "verify"
    [
      ("terms", term_tests);
      ("symbolic", symbolic_tests);
      ("interval", interval_tests);
      ("kernels", kernel_tests);
      ("taylor", taylor_tests);
      ("tape-pins", taylor_pin_tests);
      ("verifier", verifier_tests);
      ("fpcore", fpcore_tests);
      ("properties", props);
    ]

(* Unit and property tests for the fpbits library: IEEE-754 classification,
   the ordered-index mapping, ULP distances (the paper's Figure 3), and the
   emulated binary32 arithmetic. *)

let check_class x expected () =
  Alcotest.(check string)
    (Printf.sprintf "classify %h" x)
    expected
    (Fp64.class_to_string (Fp64.classify x))

let classification_tests =
  [
    Alcotest.test_case "zero" `Quick (check_class 0.0 "zero");
    Alcotest.test_case "neg zero" `Quick (check_class (-0.0) "zero");
    Alcotest.test_case "one" `Quick (check_class 1.0 "normal");
    Alcotest.test_case "max" `Quick (check_class Float.max_float "normal");
    Alcotest.test_case "min normal" `Quick (check_class 0x1p-1022 "normal");
    Alcotest.test_case "denormal" `Quick (check_class 0x1p-1050 "denormal");
    Alcotest.test_case "min denormal" `Quick (check_class 0x0.0000000000001p-1022 "denormal");
    Alcotest.test_case "inf" `Quick (check_class Float.infinity "infinity");
    Alcotest.test_case "neg inf" `Quick (check_class Float.neg_infinity "infinity");
    Alcotest.test_case "nan" `Quick (check_class Float.nan "nan");
    Alcotest.test_case "sign bit of -1" `Quick (fun () ->
        Alcotest.(check bool) "negative" true (Fp64.sign_bit (-1.0)));
    Alcotest.test_case "sign bit of -0" `Quick (fun () ->
        Alcotest.(check bool) "negative zero" true (Fp64.sign_bit (-0.0)));
    Alcotest.test_case "exponent of 1.0" `Quick (fun () ->
        Alcotest.(check int) "biased" 1023 (Fp64.exponent_bits 1.0));
    Alcotest.test_case "fraction of 1.0" `Quick (fun () ->
        Alcotest.(check int64) "zero fraction" 0L (Fp64.fraction_bits 1.0));
  ]

let ordered_tests =
  [
    Alcotest.test_case "zeros coincide" `Quick (fun () ->
        Alcotest.(check int64) "ordered" (Fp64.ordered 0.0) (Fp64.ordered (-0.0)));
    Alcotest.test_case "succ of 1.0" `Quick (fun () ->
        Alcotest.(check (float 0.))
          "next" (1.0 +. epsilon_float) (Fp64.succ 1.0));
    Alcotest.test_case "pred . succ = id" `Quick (fun () ->
        Alcotest.(check (float 0.)) "roundtrip" 42.0 (Fp64.pred (Fp64.succ 42.0)));
    Alcotest.test_case "succ of -min_denormal is -0" `Quick (fun () ->
        let neg_min_denormal = Int64.float_of_bits 0x8000_0000_0000_0001L in
        Alcotest.(check bool)
          "is zero" true
          (Fp64.classify (Fp64.succ neg_min_denormal) = Fp64.Zero));
    Alcotest.test_case "of_ordered inverse" `Quick (fun () ->
        List.iter
          (fun x ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "roundtrip %h" x)
              x
              (Fp64.of_ordered (Fp64.ordered x)))
          [ 1.0; -1.0; 0.5; 1e300; -1e-300; Float.infinity ]);
    Alcotest.test_case "monotone on samples" `Quick (fun () ->
        let samples = [ -1e10; -1.0; -1e-310; 0.0; 1e-310; 1.0; 1e10 ] in
        let rec pairs = function
          | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "%h < %h" a b)
              true
              (Int64.compare (Fp64.ordered a) (Fp64.ordered b) < 0);
            pairs rest
          | _ -> ()
        in
        pairs samples);
  ]

let ulp_tests =
  [
    Alcotest.test_case "identical is zero" `Quick (fun () ->
        Alcotest.(check int64) "d" 0L (Ulp.dist64 3.14 3.14));
    Alcotest.test_case "adjacent is one" `Quick (fun () ->
        Alcotest.(check int64) "d" 1L (Ulp.dist64 1.0 (Fp64.succ 1.0)));
    Alcotest.test_case "symmetric" `Quick (fun () ->
        Alcotest.(check int64) "d" (Ulp.dist64 1.0 2.0) (Ulp.dist64 2.0 1.0));
    Alcotest.test_case "1.0 to 2.0 is 2^52" `Quick (fun () ->
        Alcotest.(check int64) "d" (Int64.shift_left 1L 52) (Ulp.dist64 1.0 2.0));
    Alcotest.test_case "across zero" `Quick (fun () ->
        (* -min_denormal .. +min_denormal = 2 ULPs *)
        let md = Int64.float_of_bits 1L in
        Alcotest.(check int64) "d" 2L (Ulp.dist64 (-.md) md));
    Alcotest.test_case "zero to neg zero" `Quick (fun () ->
        Alcotest.(check int64) "d" 0L (Ulp.dist64 0.0 (-0.0)));
    Alcotest.test_case "32-bit adjacent" `Quick (fun () ->
        Alcotest.(check int64) "d" 1L (Ulp.dist32 1.0 (Fp32.succ 1.0)));
    Alcotest.test_case "unsigned compare" `Quick (fun () ->
        Alcotest.(check bool) "max > 1" true (Ulp.compare Ulp.max_value 1L > 0));
    Alcotest.test_case "add_sat saturates" `Quick (fun () ->
        Alcotest.(check int64)
          "sat" Ulp.max_value
          (Ulp.add_sat Ulp.max_value 5L));
    Alcotest.test_case "sub_clamp floors at zero" `Quick (fun () ->
        Alcotest.(check int64) "clamped" 0L (Ulp.sub_clamp 5L 10L));
    Alcotest.test_case "sub_clamp subtracts" `Quick (fun () ->
        Alcotest.(check int64) "diff" 5L (Ulp.sub_clamp 10L 5L));
    Alcotest.test_case "to_float of max" `Quick (fun () ->
        Alcotest.(check bool)
          "big" true
          (Ulp.to_float Ulp.max_value > 1.8e19));
    Alcotest.test_case "of_float roundtrips small" `Quick (fun () ->
        Alcotest.(check int64) "1e6" 1_000_000L (Ulp.of_float 1e6));
    Alcotest.test_case "of_float clamps negative" `Quick (fun () ->
        Alcotest.(check int64) "0" 0L (Ulp.of_float (-5.)));
    Alcotest.test_case "of_float clamps huge" `Quick (fun () ->
        Alcotest.(check int64) "max" Ulp.max_value (Ulp.of_float 1e40));
    Alcotest.test_case "eta_of_float rejects NaN and negatives" `Quick
      (fun () ->
        let ok f = Result.is_ok (Ulp.eta_of_float f) in
        Alcotest.(check bool) "-1" false (ok (-1.));
        Alcotest.(check bool) "-inf" false (ok Float.neg_infinity);
        Alcotest.(check bool) "nan" false (ok Float.nan);
        Alcotest.(check bool) "-0" true (ok (-0.));
        Alcotest.(check bool) "1e6" true (ok 1e6);
        Alcotest.(check bool)
          "+inf is the ceiling" true
          (Ulp.eta_of_float Float.infinity = Ok Ulp.max_value));
    Alcotest.test_case "eta constants ordered" `Quick (fun () ->
        Alcotest.(check bool)
          "single < half" true
          (Ulp.compare Ulp.eta_single Ulp.eta_half < 0));
    (* of_float switches representation at 2^63 (where Int64.of_float
       would overflow) and saturates at 2^64; exercise both seams. *)
    Alcotest.test_case "of_float at 2^63" `Quick (fun () ->
        Alcotest.(check int64) "2^63" Int64.min_int (Ulp.of_float 0x1p63));
    Alcotest.test_case "of_float just below 2^63" `Quick (fun () ->
        Alcotest.(check int64)
          "largest double < 2^63" 0x7FFF_FFFF_FFFF_FC00L
          (Ulp.of_float 0x1.fffffffffffffp62));
    Alcotest.test_case "of_float of largest double below 2^64" `Quick (fun () ->
        (* 2^64 − 2^11, which lands at unsigned 0xFFFF_FFFF_FFFF_F800 *)
        Alcotest.(check int64)
          "2^64 - 2^11" (-2048L)
          (Ulp.of_float 0x1.fffffffffffffp63));
    Alcotest.test_case "to_float inverts the high range" `Quick (fun () ->
        Alcotest.(check (float 0.))
          "roundtrip" 0x1.fffffffffffffp63
          (Ulp.to_float (-2048L));
        Alcotest.(check (float 0.)) "2^63" 0x1p63 (Ulp.to_float Int64.min_int));
    Alcotest.test_case "of_float saturates at 2^64" `Quick (fun () ->
        Alcotest.(check int64) "2^64" Ulp.max_value (Ulp.of_float 0x1p64);
        Alcotest.(check int64) "above" Ulp.max_value (Ulp.of_float 0x1.8p64));
  ]

let fp32_tests =
  [
    Alcotest.test_case "round is idempotent" `Quick (fun () ->
        let r = Fp32.round 0.1 in
        Alcotest.(check (float 0.)) "idempotent" r (Fp32.round r));
    Alcotest.test_case "representable" `Quick (fun () ->
        Alcotest.(check bool) "1.5" true (Fp32.is_representable 1.5);
        Alcotest.(check bool) "0.1" false (Fp32.is_representable 0.1));
    Alcotest.test_case "add rounds" `Quick (fun () ->
        (* 2^25 + 1 is not representable in binary32. *)
        Alcotest.(check (float 0.)) "absorbed" 33554432. (Fp32.add 33554432. 1.));
    Alcotest.test_case "min/max SSE zero semantics" `Quick (fun () ->
        (* both-zero returns the second operand *)
        Alcotest.(check (float 0.)) "min" (-0.0) (Fp32.min 0.0 (-0.0));
        Alcotest.(check bool)
          "sign" true
          (Fp64.sign_bit (Fp32.min 0.0 (-0.0))));
    Alcotest.test_case "sqrt" `Quick (fun () ->
        Alcotest.(check (float 0.)) "sqrt 4" 2. (Fp32.sqrt 4.));
    Alcotest.test_case "succ/pred" `Quick (fun () ->
        Alcotest.(check (float 0.)) "roundtrip" 1.5 (Fp32.pred (Fp32.succ 1.5)));
  ]

(* ----- properties ----- *)

let finite_double =
  QCheck.map
    (fun bits ->
      let x = Int64.float_of_bits bits in
      if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then 1.0
      else x)
    QCheck.int64

let prop_ordered_roundtrip =
  QCheck.Test.make ~name:"ordered/of_ordered roundtrip" ~count:1000 finite_double
    (fun x ->
      let y = Fp64.of_ordered (Fp64.ordered x) in
      Int64.equal (Fp64.ordered x) (Fp64.ordered y))

let prop_ulp_symmetric =
  QCheck.Test.make ~name:"ULP distance is symmetric" ~count:1000
    (QCheck.pair finite_double finite_double)
    (fun (a, b) -> Int64.equal (Ulp.dist64 a b) (Ulp.dist64 b a))

let prop_ulp_triangle =
  QCheck.Test.make ~name:"ULP distance satisfies the triangle inequality"
    ~count:1000
    (QCheck.triple finite_double finite_double finite_double)
    (fun (a, b, c) ->
      let d_ac = Ulp.to_float (Ulp.dist64 a c) in
      let d_ab = Ulp.to_float (Ulp.dist64 a b) in
      let d_bc = Ulp.to_float (Ulp.dist64 b c) in
      (* to_float rounds near 2^64, so allow relative slack *)
      d_ac <= ((d_ab +. d_bc) *. (1. +. 1e-9)) +. 1.)

let prop_succ_increases =
  QCheck.Test.make ~name:"succ moves one ULP up" ~count:1000 finite_double
    (fun x -> Int64.equal (Ulp.dist64 x (Fp64.succ x)) 1L)

let prop_f32_add_matches_double_rounding =
  QCheck.Test.make ~name:"f32 add equals round(double add)" ~count:1000
    (QCheck.pair (QCheck.float_range (-1e30) 1e30) (QCheck.float_range (-1e30) 1e30))
    (fun (a, b) ->
      let a = Fp32.round a and b = Fp32.round b in
      Float.equal (Fp32.add a b) (Fp32.round (a +. b))
      || Float.is_nan (Fp32.add a b))

(* Arbitrary unsigned counts, biased toward the 2^63/2^64 seams where
   of_float's two branches and the saturation point meet. *)
let ulp_near_boundary =
  QCheck.map
    (fun (k, small) ->
      match k mod 4 with
      | 0 -> small (* anywhere *)
      | 1 -> Int64.add Int64.max_int small (* around 2^63 *)
      | 2 -> Int64.sub (-1L) (Int64.logand small 0xFFFFL) (* near 2^64 *)
      | _ -> Int64.logand small 0xFFFFL (* near 0 *))
    (QCheck.pair QCheck.int QCheck.int64)

let prop_ulp_of_to_float_roundtrip =
  QCheck.Test.make ~name:"of_float . to_float fixes representable counts"
    ~count:1000 ulp_near_boundary (fun u ->
      (* to_float rounds for u > 2^53, so the roundtrip fixes the rounded
         value rather than u itself *)
      let f = Ulp.to_float u in
      Float.equal (Ulp.to_float (Ulp.of_float f)) f)

let prop_ulp_of_float_monotone =
  QCheck.Test.make ~name:"of_float is monotone across the 2^63 seam"
    ~count:1000
    (QCheck.pair (QCheck.float_range 0. 0x1.2p64) (QCheck.float_range 0. 0x1.2p64))
    (fun (a, b) ->
      let a, b = if a <= b then (a, b) else (b, a) in
      Ulp.compare (Ulp.of_float a) (Ulp.of_float b) <= 0)

let prop_add_sat_saturates =
  QCheck.Test.make ~name:"add_sat saturates instead of wrapping" ~count:1000
    (QCheck.pair ulp_near_boundary ulp_near_boundary)
    (fun (a, b) ->
      let s = Ulp.add_sat a b in
      (* never below either operand (unsigned): wrapping would violate this *)
      Ulp.compare s (Ulp.max a b) >= 0
      && Int64.equal (Ulp.add_sat Ulp.max_value a) Ulp.max_value)

let prop_add_sat_monotone =
  QCheck.Test.make ~name:"add_sat is monotone in each argument" ~count:1000
    (QCheck.triple ulp_near_boundary ulp_near_boundary ulp_near_boundary)
    (fun (a, b, c) ->
      let lo, hi = if Ulp.compare b c <= 0 then (b, c) else (c, b) in
      Ulp.compare (Ulp.add_sat a lo) (Ulp.add_sat a hi) <= 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ordered_roundtrip;
      prop_ulp_symmetric;
      prop_ulp_triangle;
      prop_succ_increases;
      prop_f32_add_matches_double_rounding;
      prop_ulp_of_to_float_roundtrip;
      prop_ulp_of_float_monotone;
      prop_add_sat_saturates;
      prop_add_sat_monotone;
    ]

let () =
  Alcotest.run "fpbits"
    [
      ("classification", classification_tests);
      ("ordered", ordered_tests);
      ("ulp", ulp_tests);
      ("fp32", fp32_tests);
      ("properties", props);
    ]

(* Tests for the rng library: determinism, distribution sanity, and the
   statistical moments that the MCMC machinery relies on. *)

let gen seed = Rng.Xoshiro256.create seed

let determinism_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = gen 42L and b = gen 42L in
        for _ = 1 to 100 do
          Alcotest.(check int64)
            "next" (Rng.Xoshiro256.next a) (Rng.Xoshiro256.next b)
        done);
    Alcotest.test_case "different seeds diverge" `Quick (fun () ->
        let a = gen 1L and b = gen 2L in
        Alcotest.(check bool)
          "differ" false
          (Int64.equal (Rng.Xoshiro256.next a) (Rng.Xoshiro256.next b)));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let a = gen 7L in
        let b = Rng.Xoshiro256.copy a in
        let x = Rng.Xoshiro256.next a in
        let y = Rng.Xoshiro256.next b in
        Alcotest.(check int64) "same first draw" x y);
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let a = gen 7L in
        let b = Rng.Xoshiro256.split a in
        Alcotest.(check bool)
          "differ" false
          (Int64.equal (Rng.Xoshiro256.next a) (Rng.Xoshiro256.next b)));
    Alcotest.test_case "xoshiro256** known streams are stable" `Quick (fun () ->
        (* Regression pin: the first outputs for three seeds, recorded
           when the state was four int64 fields; any change of state
           layout or update order moves them. *)
        List.iter
          (fun (seed, first) ->
            let g = gen seed in
            List.iteri
              (fun i want ->
                Alcotest.(check int64)
                  (Printf.sprintf "seed %Ld output %d" seed i)
                  want (Rng.Xoshiro256.next g))
              first)
          [
            ( 0L,
              [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
                0x6aa594f1262d2d2cL ] );
            ( 1L,
              [ 0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L;
                0x642e1c7bc266a3a7L ] );
            ( 42L,
              [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
                0xecb8ad4703b360a1L ] );
          ]);
    Alcotest.test_case "state round-trips mid-stream" `Quick (fun () ->
        let g = gen 42L in
        for _ = 1 to 37 do
          ignore (Rng.Xoshiro256.next g)
        done;
        let s = Rng.Xoshiro256.state g in
        let h = Rng.Xoshiro256.of_state s in
        Alcotest.(check (array int64)) "same state" s (Rng.Xoshiro256.state h);
        for i = 1 to 100 do
          Alcotest.(check int64)
            (Printf.sprintf "draw %d" i)
            (Rng.Xoshiro256.next g) (Rng.Xoshiro256.next h)
        done;
        (* the captured array is a copy: neither generator moved it *)
        Alcotest.(check bool) "snapshot unchanged" false
          (s = Rng.Xoshiro256.state g));
    Alcotest.test_case "next_top53 is next's top 53 bits" `Quick (fun () ->
        let a = gen 9L and b = gen 9L in
        for _ = 1 to 1_000 do
          Alcotest.(check int64) "same draw"
            (Int64.shift_right_logical (Rng.Xoshiro256.next a) 11)
            (Int64.of_int (Rng.Xoshiro256.next_top53 b))
        done);
    Alcotest.test_case "splitmix64 known stream is stable" `Quick (fun () ->
        (* Regression pin: the first output for seed 0 per the reference
           implementation. *)
        let sm = Rng.Splitmix64.create 0L in
        Alcotest.(check int64)
          "first" 0xe220a8397b1dcdafL (Rng.Splitmix64.next sm));
  ]

let range_tests =
  [
    Alcotest.test_case "int bound respected" `Quick (fun () ->
        let g = gen 3L in
        for _ = 1 to 10_000 do
          let v = Rng.Dist.int g 17 in
          if v < 0 || v >= 17 then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "int rejects non-positive bound" `Quick (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Dist.int: bound must be positive")
          (fun () -> ignore (Rng.Dist.int (gen 1L) 0)));
    Alcotest.test_case "float in [0,bound)" `Quick (fun () ->
        let g = gen 4L in
        for _ = 1 to 10_000 do
          let v = Rng.Dist.float g 2.5 in
          if v < 0. || v >= 2.5 then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "uniform in [lo,hi)" `Quick (fun () ->
        let g = gen 5L in
        for _ = 1 to 10_000 do
          let v = Rng.Dist.uniform g (-3.) 7. in
          if v < -3. || v >= 7. then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "choose covers all elements" `Quick (fun () ->
        let g = gen 6L in
        let seen = Array.make 5 false in
        for _ = 1 to 1_000 do
          seen.(Rng.Dist.choose g [| 0; 1; 2; 3; 4 |]) <- true
        done;
        Alcotest.(check bool) "all seen" true (Array.for_all Fun.id seen));
    Alcotest.test_case "choose_list matches list contents" `Quick (fun () ->
        let g = gen 8L in
        for _ = 1 to 100 do
          let v = Rng.Dist.choose_list g [ 10; 20; 30 ] in
          if not (List.mem v [ 10; 20; 30 ]) then Alcotest.fail "bad element"
        done);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let g = gen 9L in
        let a = Array.init 50 Fun.id in
        Rng.Dist.shuffle g a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
  ]

let moment_tests =
  [
    Alcotest.test_case "uniform mean" `Quick (fun () ->
        let g = gen 10L in
        let n = 100_000 in
        let sum = ref 0. in
        for _ = 1 to n do
          sum := !sum +. Rng.Dist.float g 1.0
        done;
        let mean = !sum /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "mean %.4f near 0.5" mean)
          true
          (Float.abs (mean -. 0.5) < 0.01));
    Alcotest.test_case "normal moments" `Quick (fun () ->
        let g = gen 11L in
        let n = 100_000 in
        let sum = ref 0. and sq = ref 0. in
        for _ = 1 to n do
          let x = Rng.Dist.normal g ~mu:2.0 ~sigma:3.0 in
          sum := !sum +. x;
          sq := !sq +. (x *. x)
        done;
        let mean = !sum /. float_of_int n in
        let var = (!sq /. float_of_int n) -. (mean *. mean) in
        Alcotest.(check bool)
          (Printf.sprintf "mean %.3f near 2" mean)
          true
          (Float.abs (mean -. 2.) < 0.05);
        Alcotest.(check bool)
          (Printf.sprintf "var %.3f near 9" var)
          true
          (Float.abs (var -. 9.) < 0.3));
    Alcotest.test_case "bool is roughly balanced" `Quick (fun () ->
        let g = gen 12L in
        let n = 100_000 in
        let trues = ref 0 in
        for _ = 1 to n do
          if Rng.Dist.bool g then incr trues
        done;
        let frac = float_of_int !trues /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "fraction %.3f" frac)
          true
          (Float.abs (frac -. 0.5) < 0.01));
  ]

let () =
  Alcotest.run "rng"
    [
      ("determinism", determinism_tests);
      ("ranges", range_tests);
      ("moments", moment_tests);
    ]

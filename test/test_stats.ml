(* Tests for the stats library: descriptive statistics, spectral density,
   and the Geweke convergence diagnostic (§5.3 of the paper). *)

let feq = Alcotest.(check (float 1e-9))

let descriptive_tests =
  [
    Alcotest.test_case "mean" `Quick (fun () ->
        feq "mean" 2.5 (Stats.Descriptive.mean [| 1.; 2.; 3.; 4. |]));
    Alcotest.test_case "mean of singleton" `Quick (fun () ->
        feq "mean" 7. (Stats.Descriptive.mean [| 7. |]));
    Alcotest.test_case "mean of empty raises" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Descriptive.mean: empty")
          (fun () -> ignore (Stats.Descriptive.mean [||])));
    Alcotest.test_case "variance" `Quick (fun () ->
        (* sample variance of 1..4 is 5/3 *)
        feq "var" (5. /. 3.) (Stats.Descriptive.variance [| 1.; 2.; 3.; 4. |]));
    Alcotest.test_case "variance of constant" `Quick (fun () ->
        feq "var" 0. (Stats.Descriptive.variance [| 5.; 5.; 5. |]));
    Alcotest.test_case "stddev" `Quick (fun () ->
        feq "sd" (sqrt (5. /. 3.)) (Stats.Descriptive.stddev [| 1.; 2.; 3.; 4. |]));
    Alcotest.test_case "min/max" `Quick (fun () ->
        feq "min" (-2.) (Stats.Descriptive.min [| 3.; -2.; 7. |]);
        feq "max" 7. (Stats.Descriptive.max [| 3.; -2.; 7. |]));
    Alcotest.test_case "quantiles" `Quick (fun () ->
        let a = [| 4.; 1.; 3.; 2. |] in
        feq "median" 2.5 (Stats.Descriptive.quantile a 0.5);
        feq "min" 1. (Stats.Descriptive.quantile a 0.);
        feq "max" 4. (Stats.Descriptive.quantile a 1.));
    Alcotest.test_case "quantile does not mutate" `Quick (fun () ->
        let a = [| 4.; 1.; 3. |] in
        ignore (Stats.Descriptive.quantile a 0.5);
        Alcotest.(check (array (float 0.))) "unchanged" [| 4.; 1.; 3. |] a);
  ]

(* [window_density] over the whole of [a], as the Geweke windows read it. *)
let density ?max_lag a =
  Stats.Spectral.window_density ?max_lag a ~pos:0 ~len:(Array.length a)
    ~mean:(Stats.Descriptive.mean a)

let spectral_tests =
  [
    Alcotest.test_case "lag-0 autocovariance is biased variance" `Quick (fun () ->
        (* with no lags the density is the lag-0 term alone *)
        feq "acov0" 1.25 (density ~max_lag:0 [| 1.; 2.; 3.; 4. |]));
    Alcotest.test_case "iid noise: density near the variance" `Quick (fun () ->
        (* decorrelated samples add next to nothing past lag 0 *)
        let g = Rng.Xoshiro256.create 1L in
        let a = Array.init 10_000 (fun _ -> Rng.Dist.normal g ~mu:0. ~sigma:1.) in
        let s0 = density ~max_lag:0 a and s5 = density ~max_lag:5 a in
        Alcotest.(check bool) "decorrelated" true (Float.abs ((s5 /. s0) -. 1.) < 0.1));
    Alcotest.test_case "density positive" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 2L in
        let a = Array.init 1_000 (fun _ -> Rng.Dist.normal g ~mu:0. ~sigma:1.) in
        Alcotest.(check bool) "positive" true (density a > 0.));
    Alcotest.test_case "autocorrelated chain has higher density" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 3L in
        let n = 5_000 in
        let iid = Array.init n (fun _ -> Rng.Dist.normal g ~mu:0. ~sigma:1.) in
        let ar = Array.make n 0. in
        for i = 1 to n - 1 do
          (* AR(1) with strong positive correlation *)
          ar.(i) <- (0.9 *. ar.(i - 1)) +. Rng.Dist.normal g ~mu:0. ~sigma:1.
        done;
        Alcotest.(check bool)
          "ar density exceeds iid" true
          (density ar > 2. *. density iid));
    Alcotest.test_case "a window outside the array is rejected" `Quick (fun () ->
        List.iter
          (fun (pos, len, msg) ->
            Alcotest.check_raises "rejected" (Invalid_argument msg) (fun () ->
                ignore (Stats.Spectral.window_density (Array.make 10 1.) ~pos ~len ~mean:1.)))
          [
            (0, 1, "Spectral.window_density: need at least 2 samples");
            (-1, 4, "Spectral.window_density: window out of bounds");
            (8, 3, "Spectral.window_density: window out of bounds");
          ]);
  ]

let geweke_tests =
  [
    Alcotest.test_case "stationary iid chain converges" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 4L in
        let a = Array.init 20_000 (fun _ -> Rng.Dist.normal g ~mu:5. ~sigma:2.) in
        let v = Stats.Geweke.z_statistic a in
        Alcotest.(check bool)
          (Printf.sprintf "z=%.3f small" v.Stats.Geweke.z)
          true
          (Stats.Geweke.converged v));
    Alcotest.test_case "strong trend fails the diagnostic" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 5L in
        let a =
          Array.init 20_000 (fun i ->
              (float_of_int i /. 1000.) +. Rng.Dist.normal g ~mu:0. ~sigma:0.1)
        in
        let v = Stats.Geweke.z_statistic a in
        Alcotest.(check bool)
          (Printf.sprintf "z=%.1f large" v.Stats.Geweke.z)
          false
          (Stats.Geweke.converged v));
    Alcotest.test_case "means reported per window" `Quick (fun () ->
        let a = Array.init 1000 (fun i -> if i < 100 then 0. else 10.) in
        let v = Stats.Geweke.z_statistic a in
        feq "early" 0. v.Stats.Geweke.mean_a;
        feq "late" 10. v.Stats.Geweke.mean_b);
    Alcotest.test_case "short chain raises" `Quick (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Geweke.z_statistic: chain too short") (fun () ->
            ignore (Stats.Geweke.z_statistic [| 1.; 2.; 3. |])));
    Alcotest.test_case "custom threshold" `Quick (fun () ->
        let v = { Stats.Geweke.z = 1.0; mean_a = 0.; mean_b = 0.; n = 100 } in
        Alcotest.(check bool) "loose" true (Stats.Geweke.converged ~threshold:1.5 v);
        Alcotest.(check bool) "tight" false (Stats.Geweke.converged ~threshold:0.5 v));
  ]

(* The one-lag-per-pass formula, written out here as the reference the
   library's in-place, several-lags-per-pass sum must match bit for bit:
   copy each window, take its mean per lag, sum each lag in one serial
   chain. *)
module Reference = struct
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

  let autocovariance a k =
    let n = Array.length a in
    let m = mean a in
    let acc = ref 0. in
    for i = 0 to n - k - 1 do
      acc := !acc +. ((a.(i) -. m) *. (a.(i + k) -. m))
    done;
    !acc /. float_of_int n

  let density_at_zero ?max_lag a =
    let n = Array.length a in
    let lag =
      match max_lag with
      | None -> int_of_float (sqrt (float_of_int n))
      | Some l -> Stdlib.min l (n - 1)
    in
    let s = ref (autocovariance a 0) in
    for k = 1 to lag do
      let w = 1. -. (float_of_int k /. float_of_int (lag + 1)) in
      s := !s +. (2. *. w *. autocovariance a k)
    done;
    Float.max !s 1e-300

  let z_statistic ~frac_a ~frac_b chain =
    let n = Array.length chain in
    let n1 = Stdlib.max 2 (int_of_float (frac_a *. float_of_int n)) in
    let n2 = Stdlib.max 2 (int_of_float (frac_b *. float_of_int n)) in
    let early = Array.sub chain 0 n1 in
    let late = Array.sub chain (n - n2) n2 in
    let mean_a = mean early and mean_b = mean late in
    let s1 = density_at_zero early and s2 = density_at_zero late in
    let denom = sqrt ((s1 /. float_of_int n1) +. (s2 /. float_of_int n2)) in
    ((if denom > 0. then (mean_a -. mean_b) /. denom else 0.), mean_a, mean_b)
end

(* Random chains of the shapes validation produces: iid noise, strongly
   autocorrelated runs, ULP-sized plateaus with repeats, and constants. *)
let random_chain g n =
  let normal () = Rng.Dist.normal g ~mu:0. ~sigma:1. in
  match Rng.Dist.int g 5 with
  | 0 -> Array.init n (fun _ -> normal ())
  | 1 ->
    let a = Array.make n (normal ()) in
    for i = 1 to n - 1 do
      a.(i) <- (0.95 *. a.(i - 1)) +. normal ()
    done;
    a
  | 2 ->
    (* an MCMC error trace: a few levels, held for random stretches *)
    let levels = Array.init 4 (fun _ -> Float.round (Float.abs (normal ()) *. 1e12)) in
    let cur = ref levels.(0) in
    Array.init n (fun _ ->
        if Rng.Dist.int g 8 = 0 then cur := levels.(Rng.Dist.int g 4);
        !cur)
  | 3 -> Array.init n (fun i -> (float_of_int i *. 1e-3) +. (1e6 *. normal ()))
  | _ -> Array.make n (normal ())

let bits = Int64.bits_of_float

let check_bits what n lag expected got =
  if not (Int64.equal (bits expected) (bits got)) then
    Alcotest.failf "%s differs (n=%d, %s): expected %h, got %h" what n lag
      expected got

let bit_identity_tests =
  [
    Alcotest.test_case "window_density is bit-identical to one lag per pass"
      `Quick (fun () ->
        let g = Rng.Xoshiro256.create 31L in
        let chains = ref 0 in
        (* the window [pos, pos + n) of [a], read in place, against a copy
           of it summed one lag per pass *)
        let check_window a ~pos n max_lag =
          let lag =
            Printf.sprintf "pos %d, %s" pos
              (match max_lag with None -> "default lag" | Some l -> Printf.sprintf "max_lag %d" l)
          in
          check_bits "window_density" n lag
            (Reference.density_at_zero ?max_lag (Array.sub a pos n))
            (Stats.Spectral.window_density ?max_lag a ~pos ~len:n
               ~mean:(Stats.Descriptive.window_mean a ~pos ~len:n))
        in
        let check a max_lag = check_window a ~pos:0 (Array.length a) max_lag in
        (* every length from 2 to 80, so every count of leftover lags
           after whole groups of eight, then longer chains up to 5000 *)
        let lengths =
          List.init 79 (fun i -> i + 2)
          @ List.init 1930 (fun i ->
                if i mod 10 = 0 then 2 + Rng.Dist.int g 4999
                else 2 + Rng.Dist.int g 400)
        in
        List.iter
          (fun n ->
            let a = random_chain g n in
            incr chains;
            check a None;
            (* every lag count mod 8, with and without a leftover *)
            List.iter (fun l -> check a (Some l)) [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 15; 16; 17 ];
            (* every lag the window has: O(n²), so short chains only *)
            if n <= 200 then
              List.iter (fun l -> check a (Some l)) [ n - 1; n; n + 7 ])
          lengths;
        (* Long windows, up to the 30,000 samples of a 60,000-sample
           chain's late window and the whole chain itself, at and around
           multiples of 4096 (the kernel's block), so a lag's terms span
           several blocks and a group of eight lags ends inside one, and
           at offsets into a longer array. *)
        let big = random_chain g 70_000 in
        List.iter
          (fun n ->
            List.iter
              (fun pos ->
                check_window big ~pos n None;
                List.iter
                  (fun l -> check_window big ~pos n (Some l))
                  [ 1; 7; 8; 9; 60; 63; 64; 65; 250 ])
              [ 0; 3; 70_000 - n ])
          [ 4095; 4096; 4097; 4096 + 64; 8191; 8192; 8193; 12_289; 30_000; 60_000 ];
        (* a lag longer than a block: the scratch holds the block and the
           lag's partners *)
        List.iter
          (fun (n, l) -> check_window big ~pos:11 n (Some l))
          [ (5_000, 4_096); (6_000, 4_999); (9_000, 5_001) ];
        (* a constant chain has zero density: the 1e-300 clamp *)
        List.iter
          (fun n ->
            let a = Array.make n 3.25 in
            Alcotest.(check bool) "clamped" true
              (Int64.equal (bits (density a)) (bits 1e-300));
            check a None;
            check a (Some n))
          [ 2; 5; 64; 1000; 9000 ];
        Alcotest.(check bool) "at least 2000 chains" true (!chains >= 2000));
    Alcotest.test_case "z_statistic is bit-identical to copied windows" `Quick
      (fun () ->
        let g = Rng.Xoshiro256.create 32L in
        let fracs = [ (0.1, 0.5); (0.2, 0.3); (0.05, 0.9); (0.5, 0.5) ] in
        for c = 1 to 2000 do
          let n = if c mod 10 = 0 then 20 + Rng.Dist.int g 4981 else 20 + Rng.Dist.int g 400 in
          let a = if c mod 97 = 0 then Array.make n 1.5 else random_chain g n in
          List.iter
            (fun (frac_a, frac_b) ->
              let z, mean_a, mean_b = Reference.z_statistic ~frac_a ~frac_b a in
              let v = Stats.Geweke.z_statistic ~frac_a ~frac_b a in
              let lag = Printf.sprintf "fracs %g/%g" frac_a frac_b in
              check_bits "z" n lag z v.Stats.Geweke.z;
              check_bits "mean_a" n lag mean_a v.Stats.Geweke.mean_a;
              check_bits "mean_b" n lag mean_b v.Stats.Geweke.mean_b)
            fracs
        done);
    (* The validator's sample buffer is longer than its chain: [~len]
       must read the prefix alone, bit for bit as a copy of it. *)
    Alcotest.test_case "z_statistic ~len reads only the prefix" `Quick
      (fun () ->
        let g = Rng.Xoshiro256.create 33L in
        for c = 1 to 500 do
          let n = 20 + Rng.Dist.int g 2000 in
          let buf = random_chain g (n + Rng.Dist.int g 300) in
          let lag = Printf.sprintf "buffer %d" (Array.length buf) in
          let v = Stats.Geweke.z_statistic ~len:n buf in
          let w = Stats.Geweke.z_statistic (Array.sub buf 0 n) in
          check_bits "z" n lag w.Stats.Geweke.z v.Stats.Geweke.z;
          check_bits "mean_a" n lag w.Stats.Geweke.mean_a v.Stats.Geweke.mean_a;
          check_bits "mean_b" n lag w.Stats.Geweke.mean_b v.Stats.Geweke.mean_b;
          Alcotest.(check int) "n" n v.Stats.Geweke.n;
          if c = 1 then
            Alcotest.check_raises "len past the end"
              (Invalid_argument "Geweke.z_statistic: len outside the array")
              (fun () ->
                ignore
                  (Stats.Geweke.z_statistic ~len:(Array.length buf + 1) buf))
        done);
  ]

let gelman_rubin_tests =
  [
    Alcotest.test_case "identical-distribution chains converge" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 21L in
        let chains =
          Array.init 4 (fun _ ->
              Array.init 5_000 (fun _ -> Rng.Dist.normal g ~mu:3. ~sigma:1.))
        in
        let v = Stats.Gelman_rubin.r_hat chains in
        Alcotest.(check bool)
          (Printf.sprintf "r_hat=%.4f near 1" v.Stats.Gelman_rubin.r_hat)
          true
          (Stats.Gelman_rubin.converged v));
    Alcotest.test_case "chains at different modes fail" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 22L in
        let chains =
          Array.init 4 (fun i ->
              Array.init 2_000 (fun _ ->
                  Rng.Dist.normal g ~mu:(10. *. float_of_int i) ~sigma:1.))
        in
        let v = Stats.Gelman_rubin.r_hat chains in
        Alcotest.(check bool)
          (Printf.sprintf "r_hat=%.1f large" v.Stats.Gelman_rubin.r_hat)
          false
          (Stats.Gelman_rubin.converged v));
    Alcotest.test_case "chains truncated to shortest" `Quick (fun () ->
        let a = Array.make 100 1. and b = Array.make 50 1. in
        let v = Stats.Gelman_rubin.r_hat [| a; b |] in
        Alcotest.(check int) "n" 50 v.Stats.Gelman_rubin.n;
        Alcotest.(check int) "m" 2 v.Stats.Gelman_rubin.m);
    Alcotest.test_case "single chain rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Stats.Gelman_rubin.r_hat [| Array.make 10 0. |]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "constant chains give r_hat 1" `Quick (fun () ->
        let chains = Array.init 3 (fun _ -> Array.make 20 5.) in
        let v = Stats.Gelman_rubin.r_hat chains in
        Alcotest.(check (float 1e-9)) "one" 1. v.Stats.Gelman_rubin.r_hat);
  ]

let () =
  Alcotest.run "stats"
    [
      ("descriptive", descriptive_tests);
      ("spectral", spectral_tests);
      ("geweke", geweke_tests);
      ("bit-identity", bit_identity_tests);
      ("gelman-rubin", gelman_rubin_tests);
    ]

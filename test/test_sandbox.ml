(* Tests for the sandbox library: memory faults, machine state invariants,
   per-opcode interpreter semantics, execution, and kernel specs. *)

let parse_i s =
  match Parser.parse_instr s with
  | Ok i -> i
  | Error e -> Alcotest.failf "parse %S: %s" s e

let fresh () = Sandbox.Machine.create ~mem_size:4096 ()

(* Run a one-liner on a machine prepared by [setup]; return the machine. *)
let exec1 ?(setup = fun _ -> ()) asm =
  let m = fresh () in
  setup m;
  (match Sandbox.Semantics.step m (parse_i asm) with
   | Ok () -> ()
   | Error f -> Alcotest.failf "%s faulted: %s" asm (Sandbox.Semantics.fault_to_string f));
  m

let exec_expect_fault ?(setup = fun _ -> ()) asm =
  let m = fresh () in
  setup m;
  match Sandbox.Semantics.step m (parse_i asm) with
  | Ok () -> Alcotest.failf "%s did not fault" asm
  | Error f -> f

let check_f64 = Alcotest.(check (float 0.))
let base = 0x100000L

let memory_tests =
  [
    Alcotest.test_case "read/write roundtrip" `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        (match Sandbox.Memory.write mem base 8 0x1122334455667788L with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "write");
        (match Sandbox.Memory.read mem base 8 with
         | Ok v -> Alcotest.(check int64) "value" 0x1122334455667788L v
         | Error _ -> Alcotest.fail "read"));
    Alcotest.test_case "little endian" `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        ignore (Sandbox.Memory.write mem base 4 0x0a0b0c0dL);
        (match Sandbox.Memory.read mem base 1 with
         | Ok v -> Alcotest.(check int64) "low byte first" 0x0dL v
         | Error _ -> Alcotest.fail "read"));
    Alcotest.test_case "out of bounds low" `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        Alcotest.(check bool)
          "fault" true
          (Result.is_error (Sandbox.Memory.read mem (Int64.sub base 1L) 4)));
    Alcotest.test_case "out of bounds high" `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        Alcotest.(check bool)
          "fault" true
          (Result.is_error (Sandbox.Memory.read mem (Int64.add base 61L) 4)));
    Alcotest.test_case "straddling end faults" `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        Alcotest.(check bool)
          "fault" true
          (Result.is_error (Sandbox.Memory.write mem (Int64.add base 60L) 8 0L)));
    Alcotest.test_case "aligned 128-bit access" `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        (match Sandbox.Memory.write128 ~aligned:true mem base (1L, 2L) with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "write128");
        (match Sandbox.Memory.read128 ~aligned:true mem base with
         | Ok (lo, hi) ->
           Alcotest.(check int64) "lo" 1L lo;
           Alcotest.(check int64) "hi" 2L hi
         | Error _ -> Alcotest.fail "read128"));
    Alcotest.test_case "misaligned 128-bit faults when checked" `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        Alcotest.(check bool)
          "fault" true
          (Result.is_error (Sandbox.Memory.read128 ~aligned:true mem (Int64.add base 4L)));
        Alcotest.(check bool)
          "unchecked ok" true
          (Result.is_ok (Sandbox.Memory.read128 mem (Int64.add base 4L))));
    Alcotest.test_case "set_bytes out of range raises" `Quick (fun () ->
        let mem = Sandbox.Memory.create 16 in
        Alcotest.(check bool)
          "raises" true
          (try
             Sandbox.Memory.set_bytes mem (Int64.add base 100L) "xx";
             false
           with Invalid_argument _ -> true));
  ]

let machine_tests =
  [
    Alcotest.test_case "set_gp32 zero-extends" `Quick (fun () ->
        let m = fresh () in
        Sandbox.Machine.set_gp m Reg.Rax (-1L);
        Sandbox.Machine.set_gp32 m Reg.Rax 0x1234L;
        Alcotest.(check int64) "upper cleared" 0x1234L (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "set_f32 preserves other bits" `Quick (fun () ->
        let m = fresh () in
        Sandbox.Machine.set_xmm m Reg.Xmm3 (0x1111111122222222L, 0x33L);
        Sandbox.Machine.set_f32 m Reg.Xmm3 1.5;
        let lo, hi = Sandbox.Machine.get_xmm m Reg.Xmm3 in
        Alcotest.(check int64) "upper dword kept" 0x11111111L (Int64.shift_right_logical lo 32);
        Alcotest.(check int64) "high quad kept" 0x33L hi;
        check_f64 "value" 1.5 (Sandbox.Machine.get_f32 m Reg.Xmm3));
    Alcotest.test_case "rsp starts mid-arena" `Quick (fun () ->
        let m = fresh () in
        Alcotest.(check int64)
          "rsp" (Sandbox.Machine.default_rsp m)
          (Sandbox.Machine.get_gp m Reg.Rsp));
    Alcotest.test_case "restore_from resets everything" `Quick (fun () ->
        let m = fresh () in
        let pristine = Sandbox.Machine.copy m in
        Sandbox.Machine.set_gp m Reg.Rbx 99L;
        Sandbox.Machine.set_f64 m Reg.Xmm9 3.25;
        ignore (Sandbox.Memory.write m.Sandbox.Machine.mem base 8 77L);
        m.Sandbox.Machine.flags.Sandbox.Machine.zf <- true;
        Sandbox.Machine.restore_from ~src:pristine ~dst:m;
        Alcotest.(check int64) "gp" 0L (Sandbox.Machine.get_gp m Reg.Rbx);
        check_f64 "xmm" 0. (Sandbox.Machine.get_f64 m Reg.Xmm9);
        Alcotest.(check bool) "zf" false m.Sandbox.Machine.flags.Sandbox.Machine.zf;
        match Sandbox.Memory.read m.Sandbox.Machine.mem base 8 with
        | Ok v -> Alcotest.(check int64) "mem" 0L v
        | Error _ -> Alcotest.fail "read");
  ]

(* ----- register file vs a boxed reference model ----- *)

(* The register file as two [int64 array]s with the x86 rules written
   out directly: a reference the unboxed byte file must match on every
   accessor, quad for quad. *)
module Regfile_model = struct
  type t = { gp : int64 array; xmm : int64 array (* 2i = lo, 2i+1 = hi *) }

  (* [Machine.create]'s state: all zero but rsp *)
  let create m =
    let gp = Array.make 16 0L in
    gp.(Reg.gp_index Reg.Rsp) <- Sandbox.Machine.default_rsp m;
    { gp; xmm = Array.make 32 0L }

  let lo t r = t.xmm.(2 * Reg.xmm_index r)
  let set_lo t r v = t.xmm.(2 * Reg.xmm_index r) <- v
end

(* Floats whose bits matter: NaNs with random payloads and signs (double
   and single-width payloads), infinities, signed zeros, denormals, and
   arbitrary bit patterns. *)
let random_float g =
  let r = Rng.Xoshiro256.next g in
  match Rng.Dist.int g 6 with
  | 0 -> Int64.float_of_bits (Int64.logor 0x7ff0_0000_0000_0001L r)
  | 1 ->
    let payload = Int64.logand r 0x000f_ffff_ffff_ffffL in
    Int64.float_of_bits
      (Int64.logor 0x7ff0_0000_0000_0000L
         (if Int64.equal payload 0L then 1L else payload))
  | 2 ->
    Int32.float_of_bits (Int32.logor 0x7f80_0001l (Int64.to_int32 r))
  | 3 -> [| 0.; -0.; Float.infinity; Float.neg_infinity; 4.9e-324; -1.5 |].(Rng.Dist.int g 6)
  | _ -> Int64.float_of_bits r

let regfile_tests =
  [
    Alcotest.test_case "register file matches a boxed model (major heap)" `Quick
      (fun () ->
        let module M = Sandbox.Machine in
        let g = Rng.Xoshiro256.create 0x5eedL in
        let m = fresh () in
        (* promote the machine: its register writes take the major-heap
           path, which the boxed layout paid a write barrier for *)
        Gc.full_major ();
        let model = Regfile_model.create m in
        let gp_reg () = Reg.gp_of_index (Rng.Dist.int g 16) in
        let xmm_reg () = Reg.xmm_of_index (Rng.Dist.int g 16) in
        let bits = Int64.bits_of_float in
        let expect_bits what exp got =
          if not (Int64.equal (bits exp) (bits got)) then
            Alcotest.failf "%s: expected %Lx, got %Lx" what (bits exp) (bits got)
        in
        let expect what exp got =
          if not (Int64.equal exp got) then
            Alcotest.failf "%s: expected %Lx, got %Lx" what exp got
        in
        let lo32 = 0xffff_ffffL in
        for step = 1 to 12_000 do
          (match Rng.Dist.int g 14 with
           | 0 ->
             let r = gp_reg () and v = Rng.Xoshiro256.next g in
             M.set_gp m r v;
             model.gp.(Reg.gp_index r) <- v
           | 1 ->
             let r = gp_reg () in
             expect "get_gp" model.gp.(Reg.gp_index r) (M.get_gp m r)
           | 2 ->
             (* the x86-64 rule: a 32-bit write zeroes bits 32-63 *)
             let r = gp_reg () and v = Rng.Xoshiro256.next g in
             M.set_gp32 m r v;
             model.gp.(Reg.gp_index r) <- Int64.logand v lo32
           | 3 ->
             let r = gp_reg () in
             expect "get_gp32"
               (Int64.logand model.gp.(Reg.gp_index r) lo32)
               (M.get_gp32 m r)
           | 4 ->
             let r = xmm_reg () in
             let lo = Rng.Xoshiro256.next g and hi = Rng.Xoshiro256.next g in
             M.set_xmm m r (lo, hi);
             model.xmm.(2 * Reg.xmm_index r) <- lo;
             model.xmm.((2 * Reg.xmm_index r) + 1) <- hi
           | 5 ->
             let r = xmm_reg () in
             let lo, hi = M.get_xmm m r in
             expect "get_xmm lo" (Regfile_model.lo model r) lo;
             expect "get_xmm hi" model.xmm.((2 * Reg.xmm_index r) + 1) hi
           | 6 ->
             let r = xmm_reg () and v = Rng.Xoshiro256.next g in
             M.set_xmm_lo m r v;
             Regfile_model.set_lo model r v
           | 7 ->
             let r = xmm_reg () in
             expect "get_xmm_lo" (Regfile_model.lo model r) (M.get_xmm_lo m r)
           | 8 ->
             let r = xmm_reg () and x = random_float g in
             M.set_f64 m r x;
             Regfile_model.set_lo model r (bits x)
           | 9 ->
             let r = xmm_reg () in
             expect_bits "get_f64"
               (Int64.float_of_bits (Regfile_model.lo model r))
               (M.get_f64 m r)
           | 10 ->
             (* a single-width write keeps bits 32-127 *)
             let r = xmm_reg () and x = random_float g in
             M.set_f32 m r x;
             let d = Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) lo32 in
             Regfile_model.set_lo model r
               (Int64.logor
                  (Int64.logand (Regfile_model.lo model r) 0xffff_ffff_0000_0000L)
                  d)
           | 11 ->
             let r = xmm_reg () in
             expect_bits "get_f32"
               (Int32.float_of_bits (Int64.to_int32 (Regfile_model.lo model r)))
               (M.get_f32 m r)
           | 12 ->
             let r = xmm_reg () in
             expect_bits "get_f32_hi"
               (Int32.float_of_bits
                  (Int64.to_int32
                     (Int64.shift_right_logical (Regfile_model.lo model r) 32)))
               (M.get_f32_hi m r)
           | _ ->
             if step mod 100 = 0 then Gc.full_major ());
          (* the whole file, quad for quad, after every operation *)
          Array.iteri
            (fun i v ->
              expect (Printf.sprintf "step %d: gp %d" step i) v
                (M.get_gp m (Reg.gp_of_index i)))
            model.gp;
          for i = 0 to 15 do
            let lo, hi = M.get_xmm m (Reg.xmm_of_index i) in
            expect (Printf.sprintf "step %d: xmm%d lo" step i) model.xmm.(2 * i) lo;
            expect (Printf.sprintf "step %d: xmm%d hi" step i) model.xmm.((2 * i) + 1) hi
          done
        done);
    Alcotest.test_case "restore_from on promoted machines is byte-exact" `Quick
      (fun () ->
        let module M = Sandbox.Machine in
        let g = Rng.Xoshiro256.create 0xb10bL in
        let pristine = fresh () in
        Sandbox.Testcase.apply
          (Sandbox.Testcase.of_f64 [ (Reg.Xmm0, 1.25); (Reg.Xmm7, -0.) ])
          pristine;
        let expected = M.copy pristine in
        let m = fresh () in
        Gc.full_major ();
        for round = 1 to 50 do
          for i = 0 to 15 do
            M.set_gp m (Reg.gp_of_index i) (Rng.Xoshiro256.next g);
            M.set_xmm m (Reg.xmm_of_index i)
              (Rng.Xoshiro256.next g, Rng.Xoshiro256.next g)
          done;
          m.M.flags.M.cf <- not m.M.flags.M.cf;
          M.restore_from ~src:pristine ~dst:m;
          if not (Bytes.equal m.M.regs expected.M.regs) then
            Alcotest.failf "round %d: register file differs after restore" round;
          if m.M.flags <> expected.M.flags then
            Alcotest.failf "round %d: flags differ after restore" round;
          if round mod 10 = 0 then Gc.full_major ()
        done);
  ]

let gp_semantics_tests =
  [
    Alcotest.test_case "movl zero-extends into 64-bit" `Quick (fun () ->
        let m =
          exec1 "movl eax, ecx" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax 0xdeadbeef12345678L;
              Sandbox.Machine.set_gp m Reg.Rcx (-1L))
        in
        Alcotest.(check int64) "rcx" 0x12345678L (Sandbox.Machine.get_gp m Reg.Rcx));
    Alcotest.test_case "movabs" `Quick (fun () ->
        let m = exec1 "movabs $0x4000000000000000, rax" in
        Alcotest.(check int64) "rax" 0x4000000000000000L (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "add and flags" `Quick (fun () ->
        let m =
          exec1 "addq rcx, rax" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax 2L;
              Sandbox.Machine.set_gp m Reg.Rcx (-2L))
        in
        Alcotest.(check int64) "sum" 0L (Sandbox.Machine.get_gp m Reg.Rax);
        Alcotest.(check bool) "zf" true m.Sandbox.Machine.flags.Sandbox.Machine.zf;
        Alcotest.(check bool) "cf" true m.Sandbox.Machine.flags.Sandbox.Machine.cf);
    Alcotest.test_case "sub borrow sets cf" `Quick (fun () ->
        let m =
          exec1 "subq rcx, rax" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax 1L;
              Sandbox.Machine.set_gp m Reg.Rcx 2L)
        in
        Alcotest.(check int64) "diff" (-1L) (Sandbox.Machine.get_gp m Reg.Rax);
        Alcotest.(check bool) "cf" true m.Sandbox.Machine.flags.Sandbox.Machine.cf;
        Alcotest.(check bool) "sf" true m.Sandbox.Machine.flags.Sandbox.Machine.sf);
    Alcotest.test_case "signed overflow sets of" `Quick (fun () ->
        let m =
          exec1 "addq rcx, rax" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax Int64.max_int;
              Sandbox.Machine.set_gp m Reg.Rcx 1L)
        in
        Alcotest.(check bool) "of" true m.Sandbox.Machine.flags.Sandbox.Machine.o_f);
    Alcotest.test_case "imul" `Quick (fun () ->
        let m =
          exec1 "imulq rcx, rax" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax (-6L);
              Sandbox.Machine.set_gp m Reg.Rcx 7L)
        in
        Alcotest.(check int64) "product" (-42L) (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "logic ops" `Quick (fun () ->
        let m =
          exec1 "andq rcx, rax" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax 0xff00L;
              Sandbox.Machine.set_gp m Reg.Rcx 0x0ff0L)
        in
        Alcotest.(check int64) "and" 0x0f00L (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "xor self zeroes and sets zf" `Quick (fun () ->
        let m =
          exec1 "xorq rax, rax" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax 123L)
        in
        Alcotest.(check int64) "zero" 0L (Sandbox.Machine.get_gp m Reg.Rax);
        Alcotest.(check bool) "zf" true m.Sandbox.Machine.flags.Sandbox.Machine.zf);
    Alcotest.test_case "shl/shr/sar" `Quick (fun () ->
        let m = exec1 "shlq $52, rax" ~setup:(fun m -> Sandbox.Machine.set_gp m Reg.Rax 1023L) in
        Alcotest.(check int64) "shl" (Int64.shift_left 1023L 52) (Sandbox.Machine.get_gp m Reg.Rax);
        let m = exec1 "shrq $52, rax" ~setup:(fun m ->
            Sandbox.Machine.set_gp m Reg.Rax (Int64.bits_of_float 1.0)) in
        Alcotest.(check int64) "shr" 1023L (Sandbox.Machine.get_gp m Reg.Rax);
        let m = exec1 "sarq $1, rax" ~setup:(fun m -> Sandbox.Machine.set_gp m Reg.Rax (-8L)) in
        Alcotest.(check int64) "sar" (-4L) (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "shift count of 32-bit op masked to 5 bits" `Quick (fun () ->
        let m = exec1 "shll $33, eax" ~setup:(fun m -> Sandbox.Machine.set_gp m Reg.Rax 1L) in
        Alcotest.(check int64) "<<33 is <<1" 2L (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "neg and not" `Quick (fun () ->
        let m = exec1 "negq rax" ~setup:(fun m -> Sandbox.Machine.set_gp m Reg.Rax 5L) in
        Alcotest.(check int64) "neg" (-5L) (Sandbox.Machine.get_gp m Reg.Rax);
        let m = exec1 "notq rax" ~setup:(fun m -> Sandbox.Machine.set_gp m Reg.Rax 0L) in
        Alcotest.(check int64) "not" (-1L) (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "inc/dec preserve cf" `Quick (fun () ->
        let m =
          exec1 "incq rax" ~setup:(fun m ->
              m.Sandbox.Machine.flags.Sandbox.Machine.cf <- true;
              Sandbox.Machine.set_gp m Reg.Rax 7L)
        in
        Alcotest.(check int64) "inc" 8L (Sandbox.Machine.get_gp m Reg.Rax);
        Alcotest.(check bool) "cf kept" true m.Sandbox.Machine.flags.Sandbox.Machine.cf);
    Alcotest.test_case "cmp + cmov taken and not taken" `Quick (fun () ->
        let run av bv =
          let m = fresh () in
          Sandbox.Machine.set_gp m Reg.Rax av;
          Sandbox.Machine.set_gp m Reg.Rcx bv;
          Sandbox.Machine.set_gp m Reg.Rdx 111L;
          (match Sandbox.Semantics.step m (parse_i "cmpq rcx, rax") with
           | Ok () -> ()
           | Error _ -> Alcotest.fail "cmp");
          (match Sandbox.Semantics.step m (parse_i "cmovlq rdx, rbx") with
           | Ok () -> ()
           | Error _ -> Alcotest.fail "cmov");
          Sandbox.Machine.get_gp m Reg.Rbx
        in
        Alcotest.(check int64) "taken (1 < 2)" 111L (run 1L 2L);
        Alcotest.(check int64) "not taken (3 > 2)" 0L (run 3L 2L));
    Alcotest.test_case "setcc writes only the low byte" `Quick (fun () ->
        let m =
          exec1 "sete al" ~setup:(fun m ->
              m.Sandbox.Machine.flags.Sandbox.Machine.zf <- true;
              Sandbox.Machine.set_gp m Reg.Rax 0xff00L)
        in
        Alcotest.(check int64) "low byte 1" 0xff01L (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "lea computes address without access" `Quick (fun () ->
        let m =
          exec1 "leaq 24(rdi,rcx,8), rax" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rdi 1000L;
              Sandbox.Machine.set_gp m Reg.Rcx 2L)
        in
        Alcotest.(check int64) "ea" 1040L (Sandbox.Machine.get_gp m Reg.Rax));
  ]

let fp_semantics_tests =
  [
    Alcotest.test_case "addsd" `Quick (fun () ->
        let m =
          exec1 "addsd xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm0 1.5;
              Sandbox.Machine.set_f64 m Reg.Xmm1 2.25)
        in
        check_f64 "sum" 3.75 (Sandbox.Machine.get_f64 m Reg.Xmm0));
    Alcotest.test_case "subsd order: dst -= src" `Quick (fun () ->
        let m =
          exec1 "subsd xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm0 10.;
              Sandbox.Machine.set_f64 m Reg.Xmm1 4.)
        in
        check_f64 "diff" 6. (Sandbox.Machine.get_f64 m Reg.Xmm0));
    Alcotest.test_case "divsd by zero gives inf (no signal)" `Quick (fun () ->
        let m =
          exec1 "divsd xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm0 1.;
              Sandbox.Machine.set_f64 m Reg.Xmm1 0.)
        in
        check_f64 "inf" Float.infinity (Sandbox.Machine.get_f64 m Reg.Xmm0));
    Alcotest.test_case "sqrtsd of negative is nan" `Quick (fun () ->
        let m =
          exec1 "sqrtsd xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm1 (-4.))
        in
        Alcotest.(check bool) "nan" true (Float.is_nan (Sandbox.Machine.get_f64 m Reg.Xmm0)));
    Alcotest.test_case "minsd unordered returns source" `Quick (fun () ->
        let m =
          exec1 "minsd xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm0 Float.nan;
              Sandbox.Machine.set_f64 m Reg.Xmm1 7.)
        in
        check_f64 "src" 7. (Sandbox.Machine.get_f64 m Reg.Xmm0));
    Alcotest.test_case "addss rounds to single" `Quick (fun () ->
        let m =
          exec1 "addss xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f32 m Reg.Xmm0 33554432.;
              Sandbox.Machine.set_f32 m Reg.Xmm1 1.)
        in
        check_f64 "absorbed" 33554432. (Sandbox.Machine.get_f32 m Reg.Xmm0));
    Alcotest.test_case "mulss memory operand" `Quick (fun () ->
        let m =
          exec1 "mulss 8(rdi), xmm1" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rdi base;
              Sandbox.Memory.set_bytes m.Sandbox.Machine.mem (Int64.add base 8L)
                (Sandbox.Testcase.f32_bytes 2.5);
              Sandbox.Machine.set_f32 m Reg.Xmm1 4.)
        in
        check_f64 "product" 10. (Sandbox.Machine.get_f32 m Reg.Xmm1));
    Alcotest.test_case "ucomisd flag cases" `Quick (fun () ->
        let flags a b =
          let m =
            exec1 "ucomisd xmm1, xmm0" ~setup:(fun m ->
                Sandbox.Machine.set_f64 m Reg.Xmm0 a;
                Sandbox.Machine.set_f64 m Reg.Xmm1 b)
          in
          let f = m.Sandbox.Machine.flags in
          (f.Sandbox.Machine.zf, f.Sandbox.Machine.pf, f.Sandbox.Machine.cf)
        in
        Alcotest.(check (triple bool bool bool)) "less" (false, false, true) (flags 1. 2.);
        Alcotest.(check (triple bool bool bool)) "greater" (false, false, false) (flags 2. 1.);
        Alcotest.(check (triple bool bool bool)) "equal" (true, false, false) (flags 2. 2.);
        Alcotest.(check (triple bool bool bool)) "unordered" (true, true, true) (flags Float.nan 1.));
    Alcotest.test_case "movss reg-reg merges, load zeroes" `Quick (fun () ->
        let m =
          exec1 "movss xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm0 (0xaaaaaaaabbbbbbbbL, 0xccL);
              Sandbox.Machine.set_f32 m Reg.Xmm1 1.0)
        in
        let lo, hi = Sandbox.Machine.get_xmm m Reg.Xmm0 in
        Alcotest.(check int64) "upper dword kept" 0xaaaaaaaaL (Int64.shift_right_logical lo 32);
        Alcotest.(check int64) "high quad kept" 0xccL hi;
        let m2 =
          exec1 "movss (rdi), xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rdi base;
              Sandbox.Machine.set_xmm m Reg.Xmm0 (-1L, -1L))
        in
        let lo2, hi2 = Sandbox.Machine.get_xmm m2 Reg.Xmm0 in
        Alcotest.(check int64) "upper zeroed" 0L (Int64.shift_right_logical lo2 32);
        Alcotest.(check int64) "high zeroed" 0L hi2);
    Alcotest.test_case "movq between gp and xmm" `Quick (fun () ->
        let m =
          exec1 "movq rax, xmm1" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax (Int64.bits_of_float 6.5);
              Sandbox.Machine.set_xmm m Reg.Xmm1 (-1L, -1L))
        in
        check_f64 "value" 6.5 (Sandbox.Machine.get_f64 m Reg.Xmm1);
        let _, hi = Sandbox.Machine.get_xmm m Reg.Xmm1 in
        Alcotest.(check int64) "upper zeroed" 0L hi);
    Alcotest.test_case "movaps alignment fault" `Quick (fun () ->
        let f =
          exec_expect_fault "movaps (rdi), xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rdi (Int64.add base 4L))
        in
        match f with
        | Sandbox.Semantics.Segv _ -> ()
        | _ -> Alcotest.fail "expected segv");
    Alcotest.test_case "movups tolerates misalignment" `Quick (fun () ->
        ignore
          (exec1 "movups (rdi), xmm0" ~setup:(fun m ->
               Sandbox.Machine.set_gp m Reg.Rdi (Int64.add base 4L))));
    Alcotest.test_case "out-of-arena store faults" `Quick (fun () ->
        let f =
          exec_expect_fault "movsd xmm0, (rdi)" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rdi 0x500000L)
        in
        match f with
        | Sandbox.Semantics.Segv _ -> ()
        | _ -> Alcotest.fail "expected segv");
  ]

let packed_shuffle_tests =
  [
    Alcotest.test_case "xorps self zeroes 128 bits" `Quick (fun () ->
        let m =
          exec1 "xorps xmm0, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm0 (-1L, -1L))
        in
        Alcotest.(check (pair int64 int64)) "zero" (0L, 0L) (Sandbox.Machine.get_xmm m Reg.Xmm0));
    Alcotest.test_case "addps lanes" `Quick (fun () ->
        let pack a b = Int64.logor
            (Int64.logand (Int64.of_int32 (Int32.bits_of_float a)) 0xffffffffL)
            (Int64.shift_left (Int64.of_int32 (Int32.bits_of_float b)) 32)
        in
        let m =
          exec1 "addps xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm0 (pack 1. 2., pack 3. 4.);
              Sandbox.Machine.set_xmm m Reg.Xmm1 (pack 10. 20., pack 30. 40.))
        in
        check_f64 "lane0" 11. (Sandbox.Machine.get_f32 m Reg.Xmm0);
        check_f64 "lane1" 22. (Sandbox.Machine.get_f32_hi m Reg.Xmm0));
    Alcotest.test_case "punpckldq interleaves" `Quick (fun () ->
        let m =
          exec1 "punpckldq xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm0 (0x00000002_00000001L, 0L);
              Sandbox.Machine.set_xmm m Reg.Xmm1 (0x00000004_00000003L, 0L))
        in
        let lo, hi = Sandbox.Machine.get_xmm m Reg.Xmm0 in
        Alcotest.(check int64) "lo" 0x00000003_00000001L lo;
        Alcotest.(check int64) "hi" 0x00000004_00000002L hi);
    Alcotest.test_case "pshufd broadcast" `Quick (fun () ->
        let m =
          exec1 "pshufd $0, xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm1 (0x00000002_00000007L, 0L))
        in
        let lo, hi = Sandbox.Machine.get_xmm m Reg.Xmm0 in
        Alcotest.(check int64) "lo" 0x00000007_00000007L lo;
        Alcotest.(check int64) "hi" 0x00000007_00000007L hi);
    Alcotest.test_case "pshuflw 0xfe moves dword1 to dword0" `Quick (fun () ->
        let m =
          exec1 "pshuflw $254, xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm1 (0x00000002_00000001L, 0x99L))
        in
        check_f64 "lane0 = old lane1"
          (Int32.float_of_bits 2l |> Fp32.round)
          (Sandbox.Machine.get_f32 m Reg.Xmm0);
        let _, hi = Sandbox.Machine.get_xmm m Reg.Xmm0 in
        Alcotest.(check int64) "high quad copied" 0x99L hi);
    Alcotest.test_case "psllq/psrlq" `Quick (fun () ->
        let m =
          exec1 "psllq $8, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm0 (0xffL, 0x1L))
        in
        Alcotest.(check (pair int64 int64)) "shifted" (0xff00L, 0x100L)
          (Sandbox.Machine.get_xmm m Reg.Xmm0));
    Alcotest.test_case "movlhps/movhlps" `Quick (fun () ->
        let m =
          exec1 "movlhps xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm0 (1L, 2L);
              Sandbox.Machine.set_xmm m Reg.Xmm1 (3L, 4L))
        in
        Alcotest.(check (pair int64 int64)) "lh" (1L, 3L) (Sandbox.Machine.get_xmm m Reg.Xmm0));
    Alcotest.test_case "shufps" `Quick (fun () ->
        (* selector 0b01_00_11_10: dst0=d2, dst1=d3, dst2=s0, dst3=s1 *)
        let m =
          exec1 "shufps $78, xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_xmm m Reg.Xmm0 (0x00000002_00000001L, 0x00000004_00000003L);
              Sandbox.Machine.set_xmm m Reg.Xmm1 (0x00000006_00000005L, 0x00000008_00000007L))
        in
        let lo, hi = Sandbox.Machine.get_xmm m Reg.Xmm0 in
        Alcotest.(check int64) "lo" 0x00000004_00000003L lo;
        Alcotest.(check int64) "hi" 0x00000006_00000005L hi);
  ]

let convert_tests =
  [
    Alcotest.test_case "cvtsi2sdq" `Quick (fun () ->
        let m =
          exec1 "cvtsi2sdq rax, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax (-42L))
        in
        check_f64 "value" (-42.) (Sandbox.Machine.get_f64 m Reg.Xmm0));
    Alcotest.test_case "cvtsi2sdl sign-extends 32-bit" `Quick (fun () ->
        let m =
          exec1 "cvtsi2sdl eax, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_gp m Reg.Rax 0xffffffffL)
        in
        check_f64 "minus one" (-1.) (Sandbox.Machine.get_f64 m Reg.Xmm0));
    Alcotest.test_case "cvttsd2si truncates toward zero" `Quick (fun () ->
        let run x =
          let m =
            exec1 "cvttsd2siq xmm0, rax" ~setup:(fun m ->
                Sandbox.Machine.set_f64 m Reg.Xmm0 x)
          in
          Sandbox.Machine.get_gp m Reg.Rax
        in
        Alcotest.(check int64) "pos" 2L (run 2.9);
        Alcotest.(check int64) "neg" (-2L) (run (-2.9)));
    Alcotest.test_case "cvtsd2si rounds to nearest even" `Quick (fun () ->
        let run x =
          let m =
            exec1 "cvtsd2siq xmm0, rax" ~setup:(fun m ->
                Sandbox.Machine.set_f64 m Reg.Xmm0 x)
          in
          Sandbox.Machine.get_gp m Reg.Rax
        in
        Alcotest.(check int64) "2.5 -> 2" 2L (run 2.5);
        Alcotest.(check int64) "3.5 -> 4" 4L (run 3.5);
        Alcotest.(check int64) "-2.5 -> -2" (-2L) (run (-2.5));
        Alcotest.(check int64) "2.4 -> 2" 2L (run 2.4));
    Alcotest.test_case "nan converts to integer indefinite" `Quick (fun () ->
        let m =
          exec1 "cvttsd2siq xmm0, rax" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm0 Float.nan)
        in
        Alcotest.(check int64) "indefinite" Int64.min_int (Sandbox.Machine.get_gp m Reg.Rax));
    Alcotest.test_case "cvtsd2ss rounds" `Quick (fun () ->
        let m =
          exec1 "cvtsd2ss xmm1, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm1 0.1)
        in
        check_f64 "rounded" (Fp32.round 0.1) (Sandbox.Machine.get_f32 m Reg.Xmm0));
    Alcotest.test_case "roundsd modes" `Quick (fun () ->
        let run mode x =
          let m =
            exec1 (Printf.sprintf "roundsd $%d, xmm1, xmm0" mode) ~setup:(fun m ->
                Sandbox.Machine.set_f64 m Reg.Xmm1 x)
          in
          Sandbox.Machine.get_f64 m Reg.Xmm0
        in
        check_f64 "nearest-even" 2. (run 0 2.5);
        check_f64 "floor" 2. (run 1 2.9);
        check_f64 "ceil" 3. (run 2 2.1);
        check_f64 "trunc" (-2.) (run 3 (-2.9)));
    Alcotest.test_case "roundsd quiets a signalling NaN in every mode" `Quick
      (fun () ->
        (* the bits the hardware returns *)
        for mode = 0 to 3 do
          let m =
            exec1 (Printf.sprintf "roundsd $%d, xmm1, xmm0" mode) ~setup:(fun m ->
                Sandbox.Machine.set_xmm m Reg.Xmm1 (0xfff0_0000_0000_0001L, 0L))
          in
          Alcotest.(check int64) (Printf.sprintf "mode %d" mode) 0xfff8_0000_0000_0001L
            (Sandbox.Machine.get_xmm_lo m Reg.Xmm0)
        done);
  ]

let avx_tests =
  [
    Alcotest.test_case "vaddsd three-operand" `Quick (fun () ->
        let m =
          exec1 "vaddsd xmm1, xmm2, xmm3" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm1 1.;
              Sandbox.Machine.set_f64 m Reg.Xmm2 10.)
        in
        check_f64 "sum" 11. (Sandbox.Machine.get_f64 m Reg.Xmm3));
    Alcotest.test_case "vaddss upper bits come from src1" `Quick (fun () ->
        let m =
          exec1 "vaddss xmm1, xmm2, xmm3" ~setup:(fun m ->
              Sandbox.Machine.set_f32 m Reg.Xmm1 1.;
              Sandbox.Machine.set_xmm m Reg.Xmm2 (0xaaaaaaaa_00000000L, 0xbbL);
              Sandbox.Machine.set_f32 m Reg.Xmm2 2.)
        in
        check_f64 "sum" 3. (Sandbox.Machine.get_f32 m Reg.Xmm3);
        let lo, hi = Sandbox.Machine.get_xmm m Reg.Xmm3 in
        Alcotest.(check int64) "upper dword from src1" 0xaaaaaaaaL
          (Int64.shift_right_logical lo 32);
        Alcotest.(check int64) "high quad from src1" 0xbbL hi);
    Alcotest.test_case "vfmadd213sd computes x2*x1+x3 fused" `Quick (fun () ->
        let m =
          exec1 "vfmadd213sd xmm1, xmm2, xmm3" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm1 4.;   (* x3: addend *)
              Sandbox.Machine.set_f64 m Reg.Xmm2 3.;   (* x2 *)
              Sandbox.Machine.set_f64 m Reg.Xmm3 2.)   (* x1 = dst *)
        in
        check_f64 "2*3+4" 10. (Sandbox.Machine.get_f64 m Reg.Xmm3));
    Alcotest.test_case "vfmadd231sd computes x2*x3+x1" `Quick (fun () ->
        let m =
          exec1 "vfmadd231sd xmm1, xmm2, xmm3" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm1 4.;
              Sandbox.Machine.set_f64 m Reg.Xmm2 3.;
              Sandbox.Machine.set_f64 m Reg.Xmm3 2.)
        in
        check_f64 "3*4+2" 14. (Sandbox.Machine.get_f64 m Reg.Xmm3));
    Alcotest.test_case "fma is fused (single rounding)" `Quick (fun () ->
        (* a*b+c where the product needs the extra precision *)
        let a = 1. +. 0x1p-30 in
        let m =
          exec1 "vfmadd213sd xmm1, xmm2, xmm3" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm1 (-1.);
              Sandbox.Machine.set_f64 m Reg.Xmm2 a;
              Sandbox.Machine.set_f64 m Reg.Xmm3 a)
        in
        check_f64 "fused" (Float.fma a a (-1.)) (Sandbox.Machine.get_f64 m Reg.Xmm3));
    Alcotest.test_case "vfnmadd213sd negates the product" `Quick (fun () ->
        let m =
          exec1 "vfnmadd213sd xmm1, xmm2, xmm3" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm1 10.;
              Sandbox.Machine.set_f64 m Reg.Xmm2 3.;
              Sandbox.Machine.set_f64 m Reg.Xmm3 2.)
        in
        check_f64 "-(2*3)+10" 4. (Sandbox.Machine.get_f64 m Reg.Xmm3));
    Alcotest.test_case "f64 fma returns the first NaN of a*b+c, quieted" `Quick
      (fun () ->
        (* [vs.(p)]: a NaN at Intel operand p (dest, vvvv, r/m), quiet NaNs
           after it and numbers before it; the bits the hardware returns
           for each form, per p — the first NaN in the order the operands
           enter the form's a*b+c, quieted, sign and payload kept *)
        let vs =
          [| [| 0xfff0_0000_0000_0001L; 0xfff8_0000_0000_0012L; 0x7ff8_0000_0000_0013L |];
             [| Int64.bits_of_float 2.; 0x7ff0_0000_0000_0002L; 0x7ff8_0000_0000_0013L |];
             [| Int64.bits_of_float 2.; Int64.bits_of_float 3.; 0xfff0_0000_0000_0003L |] |]
        in
        let from_vvvv = [| 0xfff8_0000_0000_0012L; 0x7ff8_0000_0000_0002L; 0xfff8_0000_0000_0003L |] in
        List.iter
          (fun (op, want) ->
            Array.iteri
              (fun p v ->
                let m =
                  exec1 (op ^ " xmm3, xmm2, xmm0") ~setup:(fun m ->
                      Sandbox.Machine.set_xmm_lo m Reg.Xmm0 v.(0);
                      Sandbox.Machine.set_xmm_lo m Reg.Xmm2 v.(1);
                      Sandbox.Machine.set_xmm_lo m Reg.Xmm3 v.(2))
                in
                Alcotest.(check int64) (Printf.sprintf "%s, NaN at operand %d" op p)
                  want.(p) (Sandbox.Machine.get_xmm_lo m Reg.Xmm0))
              vs)
          [ ("vfmadd132sd", [| 0xfff8_0000_0000_0001L; 0x7ff8_0000_0000_0013L; 0xfff8_0000_0000_0003L |]);
            ("vfmadd213sd", from_vvvv); ("vfmadd231sd", from_vvvv);
            ("vfnmadd213sd", from_vvvv); ("vfnmadd231sd", from_vvvv);
            ("vfmsub213sd", from_vvvv) ]);
    Alcotest.test_case "an invalid fma gives the default NaN" `Quick (fun () ->
        let m =
          exec1 "vfmadd132sd xmm3, xmm2, xmm0" ~setup:(fun m ->
              Sandbox.Machine.set_f64 m Reg.Xmm0 infinity;
              Sandbox.Machine.set_f64 m Reg.Xmm2 0.;
              Sandbox.Machine.set_f64 m Reg.Xmm3 0.)
        in
        Alcotest.(check int64) "inf*0+0" 0xfff8_0000_0000_0000L
          (Sandbox.Machine.get_xmm_lo m Reg.Xmm0));
  ]

let exec_tests =
  [
    Alcotest.test_case "cycles accumulate" `Quick (fun () ->
        let p = Parser.parse_program_exn "addsd xmm1, xmm0\nmulsd xmm1, xmm0" in
        let _, r = Sandbox.Exec.run_testcase ~mem_size:4096 p Sandbox.Testcase.empty in
        Alcotest.(check int) "cycles" (Latency.of_program p) r.Sandbox.Exec.cycles;
        Alcotest.(check int) "executed" 2 r.Sandbox.Exec.executed);
    Alcotest.test_case "fault stops execution" `Quick (fun () ->
        let p =
          Parser.parse_program_exn
            "movsd xmm0, (rdi)\naddsd xmm1, xmm0"
        in
        let tc = Sandbox.Testcase.with_gp Reg.Rdi 0x1L Sandbox.Testcase.empty in
        let _, r = Sandbox.Exec.run_testcase ~mem_size:4096 p tc in
        Alcotest.(check bool) "signalled" true (Sandbox.Exec.outcome_is_signal r.Sandbox.Exec.outcome);
        Alcotest.(check int) "stopped at first" 1 r.Sandbox.Exec.executed);
    Alcotest.test_case "unused slots are skipped" `Quick (fun () ->
        let p = Program.with_padding 5 (Program.instrs Kernels.Aek_kernels.add_rewrite) in
        let tc =
          Sandbox.Spec.random_testcase (Rng.Xoshiro256.create 1L) Kernels.Aek_kernels.add_spec
        in
        let _, r = Sandbox.Exec.run_testcase ~mem_size:4096 p tc in
        Alcotest.(check int) "executed" 3 r.Sandbox.Exec.executed);
  ]

(* Inputs that merge into one register, shadow one another or overlap
   in memory and with a fixed input. *)
let install_spec =
  let r = { Sandbox.Spec.lo = -4.; hi = 4. } in
  let a = 0x100100L in
  Sandbox.Spec.make ~name:"install"
    ~float_inputs:
      Sandbox.Spec.
        [
          Fin_xmm_f32 (Reg.Xmm0, r);
          Fin_xmm_f32_hi (Reg.Xmm0, r);
          (* shadowed: xmm0 already holds an input *)
          Fin_xmm_f64 (Reg.Xmm0, r);
          Fin_xmm_f32_hi (Reg.Xmm1, r);
          Fin_xmm_f64 (Reg.Xmm2, r);
          Fin_xmm_f32 (Reg.Xmm2, r);
          Fin_xmm_f32 (Reg.Xmm3, r);
          Fin_xmm_f64 (Reg.Xmm3, r);
          (* shadowed too, after the f64 *)
          Fin_xmm_f32_hi (Reg.Xmm3, r);
          Fin_mem_f64 (a, r);
          Fin_mem_f32 (Int64.add a 4L, r);
          Fin_mem_f32 (Int64.add a 8L, r);
        ]
    ~fixed_inputs:
      Sandbox.Spec.[ Fix_gp (Reg.Rdi, a); Fix_mem (Int64.add a 8L, String.make 16 '\x5a') ]
    ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
    ~program:(Parser.parse_program_exn "movsd xmm0, xmm0")
    ()

let spec_tests =
  [
    Alcotest.test_case "testcase_of_floats packs f32 pairs" `Quick (fun () ->
        let spec = Kernels.Aek_kernels.scale_spec in
        let tc = Sandbox.Spec.testcase_of_floats spec [| 1.; 2.; 3.; 4. |] in
        let m = fresh () in
        Sandbox.Testcase.apply tc m;
        check_f64 "x" 1. (Sandbox.Machine.get_f32 m Reg.Xmm0);
        check_f64 "y" 2. (Sandbox.Machine.get_f32_hi m Reg.Xmm0);
        check_f64 "z" 3. (Sandbox.Machine.get_f32 m Reg.Xmm1);
        check_f64 "k" 4. (Sandbox.Machine.get_f32 m Reg.Xmm2));
    Alcotest.test_case "arity mismatch raises" `Quick (fun () ->
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Sandbox.Spec.testcase_of_floats Kernels.S3d.exp_spec [| 1.; 2. |]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "random floats stay in range" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 5L in
        let ranges = Sandbox.Spec.input_ranges Kernels.Aek_kernels.delta_spec in
        for _ = 1 to 200 do
          let xs = Sandbox.Spec.random_floats g Kernels.Aek_kernels.delta_spec in
          Array.iteri
            (fun i x ->
              if x < ranges.(i).Sandbox.Spec.lo || x > ranges.(i).Sandbox.Spec.hi then
                Alcotest.failf "input %d out of range" i)
            xs
        done);
    Alcotest.test_case "degenerate range pins the value" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 6L in
        for _ = 1 to 50 do
          let xs = Sandbox.Spec.random_floats g Kernels.Aek_kernels.delta_spec in
          check_f64 "v1.z pinned" 0. xs.(4);
          check_f64 "v2.x pinned" 0. xs.(5)
        done);
    Alcotest.test_case "value_ulp on integers" `Quick (fun () ->
        Alcotest.(check int64) "diff" 5L
          (Sandbox.Spec.value_ulp (Sandbox.Spec.Vi64 10L) (Sandbox.Spec.Vi64 5L)));
    Alcotest.test_case "read_outputs shape" `Quick (fun () ->
        let m = fresh () in
        Sandbox.Machine.set_f32 m Reg.Xmm0 1.5;
        let vs = Sandbox.Spec.read_outputs Kernels.Aek_kernels.dot_spec m in
        Alcotest.(check int) "one output" 1 (Array.length vs));
    Alcotest.test_case "install_floats leaves testcase_of_floats's state" `Quick
      (fun () ->
        let g = Rng.Xoshiro256.create 21L in
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            let m = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
            Sandbox.Testcase.apply (Sandbox.Spec.fixed_testcase spec) m;
            let pristine = Sandbox.Machine.copy m in
            let plan = Sandbox.Spec.install_plan spec m in
            for round = 1 to 50 do
              let xs = Sandbox.Spec.random_floats g spec in
              let want = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
              Sandbox.Testcase.apply (Sandbox.Spec.testcase_of_floats spec xs) want;
              Sandbox.Machine.restore_from ~src:pristine ~dst:m;
              Sandbox.Spec.install_floats plan m xs;
              if not (Bytes.equal want.Sandbox.Machine.regs m.Sandbox.Machine.regs)
              then Alcotest.failf "%s, round %d: registers differ" name round;
              if not (Sandbox.Memory.equal want.Sandbox.Machine.mem m.Sandbox.Machine.mem)
              then Alcotest.failf "%s, round %d: arenas differ" name round
            done)
          (("install", install_spec) :: Kernels.Registry.all));
    Alcotest.test_case "install_plan rejects a memory input outside the arena"
      `Quick (fun () ->
        let r = { Sandbox.Spec.lo = 0.; hi = 1. } in
        List.iter
          (fun fin ->
            let spec =
              Sandbox.Spec.make ~name:"outside" ~float_inputs:[ fin ]
                ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
                ~program:(Parser.parse_program_exn "movsd xmm0, xmm0") ()
            in
            match Sandbox.Spec.install_plan spec (fresh ()) with
            | _ -> Alcotest.fail "plan built"
            | exception Invalid_argument _ -> ())
          Sandbox.Spec.
            [ Fin_mem_f64 (Int64.add base 4092L, r); Fin_mem_f32 (Int64.sub base 1L, r) ]);
  ]

(* interpreter vs OCaml arithmetic on random bit patterns, specials
   included *)
let prop_addsd_matches_ocaml =
  QCheck.Test.make ~name:"addsd agrees with OCaml (+.) bitwise" ~count:2000
    (QCheck.pair QCheck.int64 QCheck.int64)
    (fun (abits, bbits) ->
      let a = Int64.float_of_bits abits and b = Int64.float_of_bits bbits in
      let m = fresh () in
      Sandbox.Machine.set_f64 m Reg.Xmm0 a;
      Sandbox.Machine.set_f64 m Reg.Xmm1 b;
      match Sandbox.Semantics.step m (parse_i "addsd xmm1, xmm0") with
      | Error _ -> false
      | Ok () ->
        let got = Sandbox.Machine.get_f64 m Reg.Xmm0 in
        let want = a +. b in
        (Float.is_nan got && Float.is_nan want)
        || Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))

let prop_mulss_single_rounded =
  QCheck.Test.make ~name:"mulss result is always a binary32 value" ~count:2000
    (QCheck.pair QCheck.int32 QCheck.int32)
    (fun (abits, bbits) ->
      let a = Int32.float_of_bits abits and b = Int32.float_of_bits bbits in
      let m = fresh () in
      Sandbox.Machine.set_f32 m Reg.Xmm0 a;
      Sandbox.Machine.set_f32 m Reg.Xmm1 b;
      match Sandbox.Semantics.step m (parse_i "mulss xmm1, xmm0") with
      | Error _ -> false
      | Ok () -> Fp32.is_representable (Sandbox.Machine.get_f32 m Reg.Xmm0))

let prop_mulsd_matches_ocaml =
  QCheck.Test.make ~name:"mulsd agrees with OCaml ( *. ) bitwise" ~count:2000
    (QCheck.pair QCheck.int64 QCheck.int64)
    (fun (abits, bbits) ->
      let a = Int64.float_of_bits abits and b = Int64.float_of_bits bbits in
      let m = fresh () in
      Sandbox.Machine.set_f64 m Reg.Xmm0 a;
      Sandbox.Machine.set_f64 m Reg.Xmm1 b;
      match Sandbox.Semantics.step m (parse_i "mulsd xmm1, xmm0") with
      | Error _ -> false
      | Ok () ->
        let got = Sandbox.Machine.get_f64 m Reg.Xmm0 in
        let want = a *. b in
        (Float.is_nan got && Float.is_nan want)
        || Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))

let prop_divsd_matches_ocaml =
  QCheck.Test.make ~name:"divsd agrees with OCaml ( /. ) bitwise" ~count:2000
    (QCheck.pair QCheck.int64 QCheck.int64)
    (fun (abits, bbits) ->
      let a = Int64.float_of_bits abits and b = Int64.float_of_bits bbits in
      let m = fresh () in
      Sandbox.Machine.set_f64 m Reg.Xmm0 a;
      Sandbox.Machine.set_f64 m Reg.Xmm1 b;
      match Sandbox.Semantics.step m (parse_i "divsd xmm1, xmm0") with
      | Error _ -> false
      | Ok () ->
        let got = Sandbox.Machine.get_f64 m Reg.Xmm0 in
        let want = a /. b in
        (Float.is_nan got && Float.is_nan want)
        || Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))

let prop_cvt_roundtrip =
  QCheck.Test.make ~name:"cvtsi2sdq/cvttsd2siq roundtrips small integers"
    ~count:1000
    (QCheck.int_range (-1_000_000) 1_000_000)
    (fun n ->
      let m = fresh () in
      Sandbox.Machine.set_gp m Reg.Rax (Int64.of_int n);
      match
        ( Sandbox.Semantics.step m (parse_i "cvtsi2sdq rax, xmm0"),
          Sandbox.Semantics.step m (parse_i "cvttsd2siq xmm0, rcx") )
      with
      | Ok (), Ok () ->
        Int64.equal (Sandbox.Machine.get_gp m Reg.Rcx) (Int64.of_int n)
      | _, _ -> false)

let prop_bitops_match =
  QCheck.Test.make ~name:"GP bit operations agree with Int64" ~count:1000
    (QCheck.triple QCheck.int64 QCheck.int64 (QCheck.int_range 0 63))
    (fun (a, b, c) ->
      let check asm setup expect =
        let m = fresh () in
        setup m;
        match Sandbox.Semantics.step m (parse_i asm) with
        | Error _ -> false
        | Ok () -> Int64.equal (Sandbox.Machine.get_gp m Reg.Rax) expect
      in
      check "andq rcx, rax"
        (fun m ->
          Sandbox.Machine.set_gp m Reg.Rax a;
          Sandbox.Machine.set_gp m Reg.Rcx b)
        (Int64.logand a b)
      && check "xorq rcx, rax"
           (fun m ->
             Sandbox.Machine.set_gp m Reg.Rax a;
             Sandbox.Machine.set_gp m Reg.Rcx b)
           (Int64.logxor a b)
      && check
           (Printf.sprintf "shlq $%d, rax" c)
           (fun m -> Sandbox.Machine.set_gp m Reg.Rax a)
           (if c = 0 then a else Int64.shift_left a c))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_addsd_matches_ocaml; prop_mulss_single_rounded;
      prop_mulsd_matches_ocaml; prop_divsd_matches_ocaml; prop_cvt_roundtrip;
      prop_bitops_match;
    ]

(* Completeness: every opcode instance in the catalogue must be executable
   by the interpreter in at least one shape — a new opcode cannot be added
   to Opcode.all without semantics. *)
let coverage_tests =
  [
    Alcotest.test_case "interpreter covers every catalogued opcode" `Quick
      (fun () ->
        List.iter
          (fun i ->
            let m = fresh () in
            (* rdi points into the arena, 16-byte aligned *)
            Sandbox.Machine.set_gp m Reg.Rdi base;
            match Sandbox.Semantics.step m i with
            | Ok () -> ()
            | Error (Sandbox.Semantics.Segv _) ->
              Alcotest.failf "%s segfaulted on aligned in-arena access"
                (Instr.to_string i)
            | Error f ->
              Alcotest.failf "%s: %s" (Instr.to_string i)
                (Sandbox.Semantics.fault_to_string f))
          (Oracles.Matrix.instances Oracles.Matrix.aliased));
    Alcotest.test_case "an instance without a memory access never faults"
      `Quick (fun () ->
        (* The premise of the search's dead-write elision: a well-formed
           instruction whose only memory operand, if any, is lea's
           address ([Liveness.cannot_fault]) runs to completion on any
           machine and writes no memory. *)
        let g = Rng.Xoshiro256.create 17L in
        let accesses_memory (i : Instr.t) =
          match i.Instr.op with
          | Opcode.Lea _ -> false
          | _ ->
            Array.exists
              (function Operand.Mem _ -> true | _ -> false)
              i.Instr.operands
        in
        let quiet = ref 0 in
        List.iter
          (fun i ->
            let name = Instr.to_string i in
            Alcotest.(check bool)
              (name ^ ": cannot_fault") (not (accesses_memory i))
              (Liveness.cannot_fault i);
            if Liveness.cannot_fault i then begin
              incr quiet;
              if Liveness.Locset.mem Liveness.Lmem (Liveness.defs i) then
                Alcotest.failf "%s: defs hold mem" name;
              for _ = 1 to 8 do
                let m = fresh () in
                List.iter
                  (fun r -> Sandbox.Machine.set_gp m r (Rng.Xoshiro256.next g))
                  Reg.all_gp;
                List.iter
                  (fun r ->
                    Sandbox.Machine.set_xmm m r
                      ( Int64.bits_of_float (random_float g),
                        Int64.bits_of_float (random_float g) ))
                  Reg.all_xmm;
                match Sandbox.Semantics.step m i with
                | Ok () -> ()
                | Error f ->
                  Alcotest.failf "%s: %s" name
                    (Sandbox.Semantics.fault_to_string f)
              done
            end)
          (List.concat_map Oracles.Matrix.instances
             Oracles.Matrix.[ aliased; distinct (); extended; rex_vex; taint ]);
        Printf.printf "%d instances without a memory access\n" !quiet;
        if !quiet < 500 then Alcotest.failf "only %d instances" !quiet);
    Alcotest.test_case "every executable shape is also encodable or flagged"
      `Quick (fun () ->
        (* the encoder may reject exotic forms, but must reject them with a
           message, never raise *)
        List.iter
          (fun i -> ignore (Encoder.encode_instr i))
          (Oracles.Matrix.instances Oracles.Matrix.extended));
  ]

(* ----- write-log restore: O(writes) undo must equal a full copy ----- *)

let restore_tests =
  [
    Alcotest.test_case "restore_from undoes writes via the dirty range" `Quick
      (fun () ->
        let src = Sandbox.Memory.create 256 in
        Sandbox.Memory.set_bytes src base
          (String.init 64 (fun i -> Char.chr ((i * 37 + 11) land 0xff)));
        let dst = Sandbox.Memory.create 256 in
        Sandbox.Memory.blit_from ~src ~dst;
        Alcotest.(check bool) "clean after blit" true (Sandbox.Memory.is_clean dst);
        Sandbox.Memory.write_exn dst (Int64.add base 8L) 8 0xdead_beef_0123_4567L;
        Sandbox.Memory.write_exn dst (Int64.add base 200L) 4 0x55L;
        Alcotest.(check bool) "dirty after writes" false
          (Sandbox.Memory.is_clean dst);
        Sandbox.Memory.restore_from ~src ~dst;
        Alcotest.(check bool) "equal after restore" true
          (Sandbox.Memory.equal src dst);
        Alcotest.(check bool) "clean after restore" true
          (Sandbox.Memory.is_clean dst));
    Alcotest.test_case "restore_from stays exact if the source mutates" `Quick
      (fun () ->
        let src = Sandbox.Memory.create 128 in
        let dst = Sandbox.Memory.create 128 in
        Sandbox.Memory.blit_from ~src ~dst;
        Sandbox.Memory.write_exn dst base 8 1L;
        (* a write to the pristine source must never leave dst stale *)
        Sandbox.Memory.write_exn src (Int64.add base 64L) 8 0x42L;
        Sandbox.Memory.restore_from ~src ~dst;
        Alcotest.(check bool) "equal after restore" true
          (Sandbox.Memory.equal src dst));
    Alcotest.test_case "restore_from from an unrelated source falls back"
      `Quick (fun () ->
        let a = Sandbox.Memory.create 128 in
        Sandbox.Memory.set_bytes a base "pristine-a";
        let b = Sandbox.Memory.create 128 in
        Sandbox.Memory.set_bytes b base "differing-b";
        (* dst never blitted from a: no shadow identity, must full-copy *)
        Sandbox.Memory.restore_from ~src:a ~dst:b;
        Alcotest.(check bool) "equal after restore" true
          (Sandbox.Memory.equal a b));
    Alcotest.test_case "integrity check trips on an unsafe_bytes mutation"
      `Quick (fun () ->
        let src0 = Sandbox.Memory.create 128 in
        Sandbox.Memory.set_bytes src0 base "pristine";
        (* a clean source, so restore_from takes the fast path *)
        let src = Sandbox.Memory.copy src0 in
        let dst = Sandbox.Memory.create 128 in
        Sandbox.Memory.blit_from ~src ~dst;
        Sandbox.Memory.set_integrity_checks true;
        Fun.protect
          ~finally:(fun () -> Sandbox.Memory.set_integrity_checks false)
          (fun () ->
            (* tracked writes restore cleanly even with checks on *)
            (match Sandbox.Memory.write dst (Int64.add base 32L) 8 0xdeadL with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "tracked write");
            Sandbox.Memory.restore_from ~src ~dst;
            Alcotest.(check bool) "tracked write restored" true
              (Sandbox.Memory.equal src dst);
            (* a direct mutation bypasses dirty tracking: without the
               check the next fast-path restore would silently leave the
               stale byte in place (the pre-fix bug); with it, it trips *)
            Bytes.set (Sandbox.Memory.unsafe_bytes dst) 3 'x';
            match Sandbox.Memory.restore_from ~src ~dst with
            | () ->
              Alcotest.fail "untracked mutation slipped past the restore"
            | exception Failure _ -> ()));
  ]

(* A run that writes far apart — delta's inputs at arena+0x100 and its
   stack under rsp, or a few bytes at each end — must come back whole.
   Checked with the integrity check on, on the fast path (a clean source
   this arena was copied from) and on the full-copy path (a source
   written since). *)
let sparse_restore_test =
  Alcotest.test_case "sparse writes restore exactly, fast and full paths"
    `Quick (fun () ->
      let g = Rng.Xoshiro256.create 17L in
      let random_string n = String.init n (fun _ -> Char.chr (Rng.Dist.int g 256)) in
      let run ~size ~fast =
        let src = Sandbox.Memory.create size in
        Sandbox.Memory.set_bytes src base (random_string size);
        let src = if fast then Sandbox.Memory.copy src else src in
        let dst = Sandbox.Memory.create size in
        Sandbox.Memory.blit_from ~src ~dst;
        let rsp = size / 2 in
        for round = 1 to 300 do
          (* delta's pattern: 32 bytes of inputs, 24 of stack *)
          Sandbox.Memory.set_bytes dst (Int64.add base 0x100L) (random_string 32);
          Sandbox.Memory.set_bytes dst (Int64.add base (Int64.of_int (rsp - 24)))
            (random_string 24);
          for _ = 1 to 1 + Rng.Dist.int g 4 do
            let n = 1 + Rng.Dist.int g 16 in
            let off =
              if Rng.Dist.bool g then Rng.Dist.int g 48
              else size - n - Rng.Dist.int g 48
            in
            if Rng.Dist.bool g then
              Sandbox.Memory.set_bytes dst (Int64.add base (Int64.of_int off))
                (random_string n)
            else
              ignore
                (Sandbox.Memory.write dst (Int64.add base (Int64.of_int off))
                   (Int.min n 8) (Rng.Xoshiro256.next g))
          done;
          Sandbox.Memory.restore_from ~src ~dst;
          if not (Sandbox.Memory.equal src dst) then
            Alcotest.failf "size %d, %s path, round %d: arena differs from pristine"
              size (if fast then "fast" else "full") round;
          Alcotest.(check bool) "clean" true (Sandbox.Memory.is_clean dst)
        done
      in
      Sandbox.Memory.set_integrity_checks true;
      Fun.protect
        ~finally:(fun () -> Sandbox.Memory.set_integrity_checks false)
        (fun () ->
          List.iter
            (fun (size, fast) -> run ~size ~fast)
            [ (4096, true); (4096, false); (1000, true); (1000, false) ]))

let restore_tests = restore_tests @ [ sparse_restore_test ]

(* ----- shared by the engine sections ----- *)

module D = Oracles.Differential

(* Fail unless [name]'s run is bit-identical to the [reference] run. *)
let same ?reference what name ref_run run =
  match D.first_difference ?reference name ref_run run with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" what d

(* Validation runs the compiled engine one input at a time, so what one
   run allocates is its cost.  Every kernel's run — restore, install the
   test, execute — stays within a fixed minor-heap budget: the 4 words
   of [Compiled.exec]'s [Exec.result].  A reintroduced box (an int64 or
   float crossing a closure or module boundary, 2 or 3 words an
   instruction) or a closure per testcase install fails it. *)
let alloc_budget_words = 4.

let alloc_tests =
  [
    Alcotest.test_case "a compiled kernel run allocates at most 4 minor words"
      `Quick (fun () ->
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            let m = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
            let pristine = Sandbox.Machine.copy m in
            let tc = Sandbox.Spec.random_testcase (Rng.Xoshiro256.create 5L) spec in
            let cp = Sandbox.Compiled.compile m spec.Sandbox.Spec.program in
            let run () =
              Sandbox.Machine.restore_from ~src:pristine ~dst:m;
              Sandbox.Testcase.apply tc m;
              ignore (Sandbox.Compiled.exec cp : Sandbox.Exec.result)
            in
            run ();
            let runs = 10_000 in
            let before = Gc.minor_words () in
            for _ = 1 to runs do
              run ()
            done;
            let per_run = (Gc.minor_words () -. before) /. float_of_int runs in
            if per_run > alloc_budget_words then
              Alcotest.failf "%s: %.1f minor words per run (budget %.0f)" name per_run
                alloc_budget_words)
          Kernels.Registry.all);
    Alcotest.test_case "a compiled run of every flattened generic shape allocates nothing"
      `Quick (fun () ->
        (* The opcodes mutated programs run that used to go through the
           generic combinators: every well-formed instance of them in
           the matrix, with aliased and with distinct registers and
           imm8 3 and 40 (a shift count below and above a dword lane),
           runs as a one-instruction program with no minor allocation:
           a reintroduced box or tuple costs at least 2 words a run. *)
        let flattened (op : Opcode.t) =
          match op with
          | Minps | Maxps | Pslld | Psrld | Psllq | Psrlq | Pshufd | Pshuflw | Shufps
          | Vunpcklps | Vaddps | Vsubps | Vmulps | Cmp _ | Test _ | Inc _ | Dec _ | Neg _
          | Not _ | Imul _ | Vaddss | Vaddsd | Vsubss | Vsubsd | Vmulss | Vmulsd | Vdivss
          | Vdivsd | Vminss | Vminsd | Vmaxss | Vmaxsd ->
            true
          | _ -> false
        in
        let instrs =
          List.filter
            (fun (i : Instr.t) -> flattened i.Instr.op)
            (Oracles.Matrix.instances Oracles.Matrix.aliased
            @ Oracles.Matrix.instances (Oracles.Matrix.distinct ())
            @ Oracles.Matrix.instances (Oracles.Matrix.distinct ~imm8:40L ()))
        in
        let m = Sandbox.Machine.create ~mem_size:256 () in
        Sandbox.Machine.set_gp m Reg.Rdi (Sandbox.Memory.base m.Sandbox.Machine.mem);
        let runs = 1000 in
        let words f =
          let before = Gc.minor_words () in
          for _ = 1 to runs do
            ignore (Sys.opaque_identity (f ()) : bool)
          done;
          Gc.minor_words () -. before
        in
        let baseline = words (fun () -> true) in
        List.iter
          (fun i ->
            let cp = Sandbox.Compiled.compile m (Program.of_instrs [ i ]) in
            if not (Sandbox.Compiled.run cp) then
              Alcotest.failf "%s faulted" (Instr.to_string i);
            let w = words (fun () -> Sandbox.Compiled.run cp) -. baseline in
            if w <> 0. then
              Alcotest.failf "%s: %.3f minor words per run" (Instr.to_string i)
                (w /. float_of_int runs))
          instrs;
        Printf.printf "%d instances ran allocation-free\n" (List.length instrs));
  ]

(* ----- the compiled engine's per-slot translation memo ----- *)

(* A random walk of proposals and undos over exp, preparing every
   program through one long-lived memo, twice: over a slot table
   refreshed by a walk, and over one that only the moves update
   ([Facts.move]/[swap], and [revert] after an undo), as the search
   drives it.  After each step both must agree with a cold
   [Compiled.compile] and with the interpreter on a finishing and a
   faulting test: outcome, fault, cycles, executed count and the whole
   machine.  The walk starts from exp plus one load through rdi, so
   memory operands are in the pools and a test whose rdi points outside
   the arena faults — also after [Unused] slots, which have no step in
   the dense array, so the fault's executed count and cycles must skip
   them.  A second prepare of the unchanged program allocates nothing. *)
let memo_walk_tests =
  [
    Alcotest.test_case "memoized prepare matches cold compile and interp"
      `Quick (fun () ->
        let spec = Kernels.S3d.exp_spec in
        let mem_size = spec.Sandbox.Spec.mem_size in
        let load =
          Instr.make Opcode.Movsd
            [ Operand.Mem { Operand.base = Some Reg.Rdi; index = None; disp = 16 };
              Operand.Xmm Reg.Xmm5 ]
        in
        let target =
          Program.of_instrs (load :: Program.instrs spec.Sandbox.Spec.program)
        in
        let pools = Search.Pools.make ~target ~spec in
        let p = Program.with_padding 24 (Program.instrs target) in
        let g = Rng.Xoshiro256.create 2024L in
        let state rdi =
          let m = Sandbox.Machine.create ~mem_size () in
          Sandbox.Testcase.apply (Sandbox.Spec.random_testcase g spec) m;
          Sandbox.Machine.set_gp m Reg.Rdi rdi;
          m
        in
        let arena = Sandbox.Memory.base (Sandbox.Machine.create ~mem_size ()).Sandbox.Machine.mem in
        let tests =
          [ ("finishing", state (Int64.add arena 64L)); ("faulting", state 0x10L) ]
        in
        let m = Sandbox.Machine.create ~mem_size () in
        let walking = Sandbox.Compiled.memo m and moving = Sandbox.Compiled.memo m in
        let walked = Sandbox.Compiled.table walking
        and table = Sandbox.Compiled.table moving in
        Facts.refresh table p;
        let finished = ref 0 and faulted = ref 0 and gapped = ref 0 in
        let wide_gaps = ref 0 in
        (* how many [Unused] slots come before the slot the [executed]th
           instruction ran in *)
        let unused_before executed =
          let rec go k active gap =
            match p.Program.slots.(k) with
            | Program.Unused -> go (k + 1) active (gap + 1)
            | Program.Active _ ->
              if active + 1 = executed then gap else go (k + 1) (active + 1) gap
          in
          go 0 0 0
        in
        let check step =
          List.iter
            (fun (how, prepare) ->
              let cp = prepare () in
              List.iter
                (fun (label, st) ->
                  Sandbox.Machine.restore_from ~src:st ~dst:m;
                  let r = Sandbox.Compiled.exec cp in
                  (match r.Sandbox.Exec.outcome with
                   | Sandbox.Exec.Finished -> incr finished
                   | Sandbox.Exec.Faulted _ ->
                     incr faulted;
                     let gap = unused_before r.Sandbox.Exec.executed in
                     if gap > 0 then incr gapped;
                     if gap > 1 then incr wide_gaps);
                  let mc = Sandbox.Machine.copy st in
                  let rc = Sandbox.Compiled.exec (Sandbox.Compiled.compile mc p) in
                  let mi = Sandbox.Machine.copy st in
                  let ri = Sandbox.Exec.run mi p in
                  List.iter
                    (fun (reference, ref_run) ->
                      same ~reference
                        (Printf.sprintf "step %d, %s test, %s\n%s" step label how
                           (Program.to_string p))
                        "memo" ref_run (r, m))
                    [ ("cold compile", (rc, mc)); ("interp", (ri, mi)) ])
                tests)
            [ ("walked table",
               fun () ->
                 Facts.refresh walked p;
                 Sandbox.Compiled.prepare walking);
              ("move-fed table", fun () -> Sandbox.Compiled.prepare moving) ];
          (* refreshing and preparing the unchanged program again writes
             no slot and allocates nothing *)
          let before = Gc.minor_words () in
          Facts.refresh walked p;
          let again = Sandbox.Compiled.prepare walking in
          let words = Gc.minor_words () -. before in
          ignore (Sys.opaque_identity again);
          if words > 0. then
            Alcotest.failf "step %d: an unchanged prepare allocated %.0f words"
              step words
        in
        let swaps = ref 0 and resizes = ref 0 and undos = ref 0 in
        let step = ref 0 in
        check 0;
        while !step < 2500 do
          let before = Program.length p in
          match Search.Transform.propose g pools p with
          | None -> ()
          | Some (kind, u) ->
            incr step;
            if kind = Search.Transform.Swap_move then incr swaps;
            if Program.length p <> before then incr resizes;
            (match u with
             | Search.Transform.Restore_slot (k, _) -> Facts.move table p k
             | Search.Transform.Restore_swap (a, b) -> Facts.swap table p a b);
            check !step;
            (* undo most proposals, as the search does, so slots go back
               to instructions the memo translated earlier *)
            if Rng.Dist.int g 8 > 0 then begin
              Search.Transform.undo p u;
              Facts.revert table p;
              incr undos;
              check !step
            end
        done;
        List.iter
          (fun (what, n) ->
            Printf.printf "%s: %d\n" what n;
            if n < 100 then Alcotest.failf "walk too narrow: %d %s" n what)
          [ ("swaps", !swaps); ("active<->unused moves", !resizes);
            ("undos", !undos); ("finishing runs", !finished);
            ("faulting runs", !faulted);
            ("faulting runs with an unused slot before the fault", !gapped);
            ("faulting runs with several unused slots before the fault", !wide_gaps) ]);
    (* The search prepares through the engine seam once per evaluated
       proposal and scores raw register bits: on the compiled engine,
       preparing a program its table describes allocates nothing, and
       running its tests allocates only the outcome. *)
    Alcotest.test_case "an engine prepare and its test runs allocate nothing"
      `Quick (fun () ->
        let spec = Kernels.S3d.exp_spec in
        let tests =
          Array.init 8 (fun _ -> Sandbox.Spec.random_testcase (Rng.Xoshiro256.create 3L) spec)
        in
        let lanes =
          Sandbox.Engine.lanes (Sandbox.Engine.of_engine Sandbox.Exec.Compiled) spec tests
        in
        let table = Sandbox.Engine.table lanes in
        let p = Program.with_padding 4 (Program.instrs spec.Sandbox.Spec.program) in
        Facts.refresh table p;
        let order = Array.init (Array.length tests) Fun.id in
        let finished = ref 0 in
        let score _ ok _ =
          if ok then incr finished;
          false
        in
        let diverges _ = false in
        let round () =
          Sandbox.Engine.run (Sandbox.Engine.prepare lanes p) ~order ~diverges
            score
        in
        ignore (round () : Sandbox.Engine.outcome);
        let before = Gc.minor_words () in
        let rounds = 1000 in
        for _ = 1 to rounds do
          ignore (Sys.opaque_identity (round ()))
        done;
        let per_round = (Gc.minor_words () -. before) /. float_of_int rounds in
        Printf.printf "%.1f minor words per prepare and %d runs\n" per_round
          (Array.length tests);
        (* the outcome record and the engine's [Some] around it *)
        if per_round > 5. then
          Alcotest.failf "%.1f minor words per prepare and %d runs" per_round
            (Array.length tests);
        Alcotest.(check int) "every run finished" ((rounds + 1) * Array.length tests) !finished);
  ]

(* This Alcotest has no skip support, so where the capability probe says
   an engine is unavailable (native execution where mmap-exec is denied)
   its cases pass vacuously instead, and say so in their log. *)
let engine_case name engine f =
  Alcotest.test_case name `Quick (fun () ->
      if Sandbox.Engine.available engine then f ()
      else
        Printf.printf "%s unavailable here: skipped\n"
          (Sandbox.Exec.engine_to_string engine))

(* Programs run one call at a time, on a machine set up by [call_setup]:
   a load, an add, a store and a GP add, and a load that faults. *)
let call_programs =
  [
    [ "movq (rdi), xmm3"; "addsd xmm3, xmm3"; "movq xmm3, 16(rdi)"; "addq $5, rcx" ];
    [ "addq $1, rcx"; "movq 8(rcx), xmm0" ];
  ]

let call_setup m =
  Sandbox.Machine.set_gp m Reg.Rdi base;
  Sandbox.Machine.set_gp m Reg.Rcx 37L;
  Sandbox.Memory.set_bytes m.Sandbox.Machine.mem base (Sandbox.Testcase.f64_bytes 2.25)

(* The seam's call-at-a-time path: every engine, called on a caller's
   machine, leaves it exactly as the interpreter would — registers,
   flags, memory, outcome and cycles — including a faulting run. *)
let engine_tests =
  [
    Alcotest.test_case "every engine's call matches the interpreter" `Quick
      (fun () ->
        List.iter
          (fun lines ->
            let p = Program.of_instrs (List.map parse_i lines) in
            let mi = fresh () in
            call_setup mi;
            let ri = Sandbox.Exec.run mi p in
            List.iter
              (fun engine ->
                let name = Sandbox.Exec.engine_to_string engine in
                let caller =
                  Sandbox.Engine.caller (Sandbox.Engine.of_engine engine)
                    (fresh ())
                in
                let m = fresh () in
                call_setup m;
                (* twice through one prepared call: state threads in and out *)
                let call = Sandbox.Engine.prepare_call caller m p in
                same "first call" name (ri, mi) (Sandbox.Engine.call call, m);
                let mi2 = Sandbox.Machine.copy mi in
                let ri2 = Sandbox.Exec.run mi2 p in
                same "second call" name (ri2, mi2) (Sandbox.Engine.call call, m))
              (List.filter Sandbox.Engine.available Sandbox.Engine.all))
          call_programs);
  ]

(* ----- the native engine's own cases -----

   These run real machine code in the guarded worker, so each is behind
   the capability probe: where mmap-exec is denied they pass as skips
   rather than fail. *)
let native_tests =
  [
    engine_case "apply_testcase overlays one lane natively" Sandbox.Exec.Native
      (fun () ->
        let spec = Kernels.S3d.exp_spec in
        let pristine =
          Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size ()
        in
        let tc x = Sandbox.Spec.testcase_of_floats spec [| x |] in
        match Sandbox.Native.create_batch pristine [| tc (-1.0); tc 0.5 |] with
        | None -> Alcotest.fail "worker failed to start"
        | Some b ->
          (match Sandbox.Native.compile b spec.Sandbox.Spec.program with
           | None -> Alcotest.fail "exp kernel must be native-eligible"
           | Some np ->
             let outputs () =
               if Sandbox.Native.exec np then Alcotest.fail "worker crashed";
               ( Bytes.copy (Sandbox.Native.lane_regs b ~lane:0),
                 Bytes.copy (Sandbox.Native.lane_regs b ~lane:1) )
             in
             let o0, o1 = outputs () in
             Sandbox.Native.reset b;
             Sandbox.Native.apply_testcase b ~lane:0 (tc 0.5);
             let o0', o1' = outputs () in
             Alcotest.(check bool) "overlaid lane follows the input" true
               (o0' = o1);
             Alcotest.(check bool) "other lane untouched" true (o1' = o1);
             (* and reset restores the baked image *)
             Sandbox.Native.reset b;
             let o0'', _ = outputs () in
             Alcotest.(check bool) "reset restores lane 0" true (o0'' = o0)));
    engine_case "run_one round-trips registers and memory" Sandbox.Exec.Native
      (fun () ->
        let p = Program.of_instrs (List.map parse_i (List.hd call_programs)) in
        let mn = fresh () in
        call_setup mn;
        let rn =
          match Sandbox.Native.create_batch ~want_mem:true mn [| Sandbox.Testcase.empty |] with
          | None -> Alcotest.fail "worker failed to start"
          | Some b ->
            (match Sandbox.Native.compile b p with
             | None -> Alcotest.fail "program must be native-eligible"
             | Some np ->
               (match Sandbox.Native.run_one b np mn with
                | Some r -> r
                | None -> Alcotest.fail "run_one crashed"))
        in
        let mi = fresh () in
        call_setup mi;
        same "run_one" "native" (Sandbox.Exec.run mi p, mi) (rn, mn));
    Alcotest.test_case "engine_of_string covers native and lists names"
      `Quick (fun () ->
        let contains_sub s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        List.iter
          (fun name ->
            match Sandbox.Exec.engine_of_string name with
            | Ok e ->
              Alcotest.(check string)
                "round-trips" name
                (Sandbox.Exec.engine_to_string e)
            | Error e -> Alcotest.failf "%s rejected: %s" name e)
          Sandbox.Exec.engine_names;
        match Sandbox.Exec.engine_of_string "jit" with
        | Ok _ -> Alcotest.fail "accepted an unknown engine"
        | Error msg ->
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (Printf.sprintf "error mentions %s" name)
                true (contains_sub msg name))
            Sandbox.Exec.engine_names);
    Alcotest.test_case "memory read at Int64.max_int is an error, not a trap"
      `Quick (fun () ->
        let mem = Sandbox.Memory.create 64 in
        Alcotest.(check bool)
          "fault" true
          (Result.is_error (Sandbox.Memory.read mem Int64.max_int 8)));
  ]

(* ----- engine-vs-interpreter differentials -----

   Every engine but the interpreter faces the same attack through
   [Oracles.Differential]: the every-shape table, the edge-value table
   and the random-pool property, each compared against the interpreter
   on outcome, fault, executed count, cycles and the whole final machine,
   lane by lane.  A batch engine runs a table's cases as the lanes of one
   batch, so a memory shape exercises per-lane fault parking. *)

let differential_engines =
  List.filter (fun e -> e <> Sandbox.Exec.Interp) Sandbox.Engine.all

(* Run each of [instrs] as a one-slot program on [engine] and the
   interpreter over [cases]; [describe lane] names a case in a failure.
   The log says which engines ran and how many programs the engine ran
   or declined.  A native run must run at least [native_floor] of them
   natively — a classifier that declines everything would otherwise
   reduce the native differential to batched vs interp. *)
let run_table ?mem_size ?on_reference ~native_floor engine ~prepare ~describe cases
    instrs =
  let d = D.create ?mem_size engine ~prepare cases in
  List.iter
    (fun (i : Instr.t) ->
      let on_reference = Option.map (fun f -> f i) on_reference in
      match D.check ?on_reference d (Program.of_instrs [ i ]) with
      | D.Same | D.Declined -> ()
      | D.Differs { lane; what } ->
        Alcotest.failf "%s (%s): %s" (Instr.to_string i) (describe lane) what)
    instrs;
  print_endline (D.summary d);
  if engine = Sandbox.Exec.Native then
    Alcotest.(check bool)
      (Printf.sprintf "at least %d of %d ran natively" native_floor
         (List.length instrs))
      true
      (D.ran d >= native_floor)

(* The fault regimes of the 16(rdi) memory operand, as rdi values: fine,
   misaligned for the aligned 128-bit moves, a 4-byte access that fits
   at the arena's end where an 8-byte one straddles it, an 8-byte access
   that fits where the high half of a 16-byte one is out of bounds, and
   far out of bounds. *)
let mem_regimes =
  [| ("in-arena", base);
     ("misaligned", Int64.add base 4L);
     ("straddling the end", Int64.add base (Int64.of_int (4096 - 16 - 4)));
     ("high half out of bounds", Int64.add base (Int64.of_int (4096 - 16 - 8)));
     ("out-of-bounds", 0x10L) |]

let arena_pattern = String.init 4096 (fun j -> Char.chr ((j * 37 + 11) land 0xff))

(* Every shape, with aliased and with distinct registers, under each of
   the five memory regimes. *)
let shape_table engine () =
  let prepare m =
    Sandbox.Machine.set_gp m Reg.Rcx 0x1234_5678_9abc_def0L;
    Sandbox.Machine.set_gp m Reg.Rdx 0x8000_0000_ffff_ff81L;
    Sandbox.Machine.set_gp m Reg.Rbx 0x7fff_ffffL;
    Sandbox.Machine.set_xmm m Reg.Xmm0 (Int64.bits_of_float 3.25, 0x7ff8_0000_0000_0001L);
    Sandbox.Machine.set_xmm m Reg.Xmm1
      (Int64.bits_of_float 1.5, Int64.bits_of_float (-0.75));
    Sandbox.Machine.set_xmm m Reg.Xmm2 (Int64.bits_of_float (-2.5), 0x4049_0fdb_c000_0000L);
    Sandbox.Machine.set_xmm m Reg.Xmm3 (0xbf80_0000_3fc0_0000L, Int64.bits_of_float 0x1p-1030);
    Sandbox.Memory.set_bytes m.Sandbox.Machine.mem base arena_pattern
  in
  run_table ~native_floor:450 engine ~prepare
    ~describe:(fun lane -> fst mem_regimes.(lane))
    (Array.map (fun (_, rdi) -> Sandbox.Testcase.(with_gp Reg.Rdi rdi empty)) mem_regimes)
    (Oracles.Matrix.instances Oracles.Matrix.aliased
    @ Oracles.Matrix.instances (Oracles.Matrix.distinct ()))

(* Bit patterns for a 64-bit register or memory quad, read as a double, as
   a single in the low dword, or as an integer: ±0, ±inf, NaN payloads,
   subnormals, the ±2^63 and ±2^31 cvt boundaries with their neighbours
   and rounding ties, and integers whose sums, differences and shifts
   carry, overflow or flip PF at Q and L width. *)
let edge_values =
  List.map Int64.bits_of_float
    [ 0.; -0.; infinity; neg_infinity; 0.5; 1.5; 2.5; -2.5; max_float;
      0x1p63; -0x1p63; Float.pred 0x1p63; 0x1p31; -0x1p31; 0x1p31 -. 0.5;
      -0x1p31 -. 0.5; -0x1p31 -. 1. ]
  @ [ 0x7ff8_0000_0000_0001L (* quiet NaN, payload 1 *);
      0xfff0_0000_0000_0001L (* negative signalling NaN *);
      0x0000_0000_0000_0001L (* smallest subnormal; the integer 1 *);
      0x800f_ffff_ffff_ffffL (* largest negative subnormal *);
      0xdead_beef_7fc0_0001L (* single NaN payload, upper dword set *);
      0x0000_0001_807f_ffffL (* negative single subnormal *);
      0x1234_5678_ff80_0000L (* single -inf *);
      0x4f00_0000L (* single 2^31 *);
      0xcf00_0000L (* single -2^31 *);
      Int64.max_int; -1L; 0x7fff_ffffL; 0x8000_0000L; 0xffff_ffffL;
      0x1_0000_0000L; 0xffL; 3L ]

(* Every distinct-register instance, over a sweep of immediates, on every
   pair of edge values: destination registers hold [a]; source registers
   and the low quad of the memory operand hold [b].  The middle xmm
   operand (xmm3, an FMA's vvvv or a VEX form's first source) holds [c],
   the edge value after [a]: so an FMA's three operands can hold three
   different NaNs, which shows the order an engine picks them in, and the
   VEX forms' two sources still meet every pair.  The arena is 64 bytes —
   enough for 16(rdi) — so a batch of 34² lanes stays small. *)
let edge_table engine () =
  let values = Array.of_list edge_values in
  let n = Array.length values in
  let pairs =
    Array.init (n * n) (fun k ->
        (values.(k / n), values.(k mod n), values.((k / n + 1) mod n)))
  in
  let quad v =
    let q = Bytes.create 8 in
    Bytes.set_int64_le q 0 v;
    Bytes.to_string q
  in
  let case (a, b, c) =
    Sandbox.Testcase.(
      empty |> with_gp Reg.Rcx a |> with_gp Reg.Rdx b
      |> with_gp Reg.Rbx (Int64.lognot b)
      |> with_xmm Reg.Xmm1 (a, Int64.lognot a)
      |> with_xmm Reg.Xmm2 (b, a) |> with_xmm Reg.Xmm3 (c, b)
      |> with_mem (Int64.add base 16L) (quad b ^ quad a))
  in
  (* the flag values add, sub and the shifts reached, per width *)
  let seen = Hashtbl.create 64 in
  let record (i : Instr.t) _ (m : Sandbox.Machine.t) =
    let f = m.Sandbox.Machine.flags in
    let note what w =
      List.iter
        (fun (flag, v) -> Hashtbl.replace seen (what, w, flag, v) ())
        [ ("cf", f.Sandbox.Machine.cf); ("of", f.Sandbox.Machine.o_f);
          ("pf", f.Sandbox.Machine.pf) ]
    in
    match i.Instr.op with
    | Opcode.Add w -> note "add" w
    | Opcode.Sub w -> note "sub" w
    | Opcode.Shl w | Opcode.Shr w | Opcode.Sar w -> note "shift" w
    | _ -> ()
  in
  let instrs =
    List.concat_map
      (fun (imm8, imm32) -> Oracles.Matrix.instances (Oracles.Matrix.distinct ~imm8 ~imm32 ()))
      [ (3L, 1000L); (0L, 0L); (1L, 1L); (31L, -1L); (32L, 0x7fff_ffffL);
        (63L, -0x8000_0000L); (255L, 0xffL) ]
    |> List.sort_uniq compare
  in
  run_table ~mem_size:64 ~on_reference:record ~native_floor:400 engine
    ~prepare:(fun m -> Sandbox.Machine.set_gp m Reg.Rdi base)
    ~describe:(fun lane ->
      let a, b, c = pairs.(lane) in
      Printf.sprintf "dst 0x%Lx, src 0x%Lx, xmm3 0x%Lx" a b c)
    (Array.map case pairs) instrs;
  List.iter
    (fun (what, flags) ->
      List.iter
        (fun w ->
          List.iter
            (fun flag ->
              List.iter
                (fun v ->
                  if not (Hashtbl.mem seen (what, w, flag, v)) then
                    Alcotest.failf "the edge table never gives %s %s=%b at %s width" what
                      flag v
                      (match w with Reg.Q -> "Q" | Reg.L -> "L"))
                [ true; false ])
            flags)
        [ Reg.Q; Reg.L ])
    [ ("add", [ "cf"; "of"; "pf" ]); ("sub", [ "cf"; "of"; "pf" ]); ("shift", [ "pf" ]) ]

(* Reset replay: a kernel over random inputs, checked six times through
   one batch (reset between runs) or one restored machine.  Compiled
   replays add, whose target stores to the stack, so {!D.check}'s final
   restore sees a store the dirty tracking missed.  A batch engine
   replays exp. *)
let replay_table engine () =
  let spec, seed, inputs =
    match engine with
    | Sandbox.Exec.Compiled -> (Kernels.Aek_kernels.add_spec, 11L, 20)
    | _ -> (Kernels.S3d.exp_spec, 17L, 8)
  in
  let g = Rng.Xoshiro256.create seed in
  let tcs = Array.init inputs (fun _ -> Sandbox.Spec.random_testcase g spec) in
  let d = D.create ~mem_size:spec.Sandbox.Spec.mem_size engine ~prepare:ignore tcs in
  for run = 1 to 6 do
    match D.check d spec.Sandbox.Spec.program with
    | D.Same -> ()
    | D.Declined -> Alcotest.fail "the replayed kernel must be native-eligible"
    | D.Differs { lane; what } -> Alcotest.failf "run %d, lane %d: %s" run lane what
  done;
  print_endline (D.summary d)

(* Random pool-drawn programs (the search's actual proposal distribution)
   on four random test cases. *)
let prop_matches_interp engine ~name ~count =
  let specs = [| Kernels.Aek_kernels.add_spec; Kernels.S3d.exp_spec |] in
  let pools =
    Array.map
      (fun (spec : Sandbox.Spec.t) -> Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec)
      specs
  in
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    (fun (seed, len) ->
      (not (Sandbox.Engine.available engine))
      ||
      let which = seed land 1 in
      let spec = specs.(which) in
      let g = Rng.Xoshiro256.create (Int64.of_int ((seed * 2) + 1)) in
      let p =
        Program.of_instrs (List.init len (fun _ -> Search.Pools.random_instr g pools.(which)))
      in
      let tcs = Array.init 4 (fun _ -> Sandbox.Spec.random_testcase g spec) in
      let d = D.create ~mem_size:spec.Sandbox.Spec.mem_size engine ~prepare:ignore tcs in
      match D.check d p with
      | D.Same | D.Declined -> true
      | D.Differs { lane; what } ->
        QCheck.Test.fail_reportf "engines disagree: lane %d: %s\nprogram:\n%s" lane what
          (Program.to_string p))

(* Each engine's names for the every-shape table, the reset replay and
   the random-pool property, and the property's trial count.  The names
   predate the shared tables (a batch engine's shape table now runs five
   fault lanes, and the batched property compares with the interpreter
   alone) and are kept so that results stay comparable across runs. *)
let case_names (e : Sandbox.Exec.engine) =
  match e with
  | Sandbox.Exec.Compiled ->
    ( "compiled matches interpreter on every opcode shape",
      "compiled restore_from replay stays pristine",
      "compiled engine is bit-identical to the interpreter", 300 )
  | Sandbox.Exec.Batched ->
    ( "batched matches interpreter on every opcode shape (3 fault lanes)",
      "batched reset replay is bit-stable across runs",
      "batched engine is bit-identical to interp and compiled per lane", 300 )
  | Sandbox.Exec.Native ->
    ( "native matches interpreter on every opcode shape (3 fault lanes)",
      "native run is bit-stable across reset replays",
      "native engine is bit-identical to the interpreter per lane", 200 )
  | Sandbox.Exec.Interp -> invalid_arg "case_names: the interpreter is the reference"

(* Per engine a group — the every-shape table, the reset replay, the
   engine's own cases, the edge table — and a property group. *)
let differential_suites =
  List.concat_map
    (fun e ->
      let name = Sandbox.Exec.engine_to_string e in
      let shapes, replay, property, count = case_names e in
      let own = match e with Sandbox.Exec.Native -> native_tests | _ -> [] in
      [ ( name,
          [ engine_case shapes e (shape_table e);
            engine_case replay e (replay_table e) ]
          @ own
          @ [ engine_case (name ^ " matches interpreter on edge values") e
                (edge_table e) ] );
        ( name ^ "-properties",
          [ QCheck_alcotest.to_alcotest (prop_matches_interp e ~name:property ~count) ] ) ])
    differential_engines

let () =
  Alcotest.run "sandbox"
    ([
       ("memory", memory_tests);
       ("machine", machine_tests);
       ("register-file", regfile_tests);
       ("gp-semantics", gp_semantics_tests);
       ("fp-semantics", fp_semantics_tests);
       ("packed-shuffle", packed_shuffle_tests);
       ("converts", convert_tests);
       ("avx-fma", avx_tests);
       ("exec", exec_tests);
       ("spec", spec_tests);
       ("coverage", coverage_tests);
       ("restore", restore_tests);
       ("compiled-alloc", alloc_tests);
       ("compiled-memo", memo_walk_tests);
       ("engine", engine_tests);
     ]
    @ differential_suites
    @ [ ("properties", props) ])

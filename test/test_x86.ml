(* Tests for the x86 library: the ISA model, parser/printer, shapes,
   liveness, latencies, and the binary encoder (checked against known-good
   byte sequences produced by standard assemblers). *)

let parse_i s =
  match Parser.parse_instr s with
  | Ok i -> i
  | Error e -> Alcotest.failf "parse %S: %s" s e

let reg_tests =
  [
    Alcotest.test_case "gp indices are the hardware numbers" `Quick (fun () ->
        Alcotest.(check int) "rax" 0 (Reg.gp_index Reg.Rax);
        Alcotest.(check int) "rsp" 4 (Reg.gp_index Reg.Rsp);
        Alcotest.(check int) "r15" 15 (Reg.gp_index Reg.R15));
    Alcotest.test_case "index roundtrip" `Quick (fun () ->
        List.iter
          (fun r ->
            Alcotest.(check bool)
              "gp" true
              (Reg.equal_gp r (Reg.gp_of_index (Reg.gp_index r))))
          Reg.all_gp;
        List.iter
          (fun r ->
            Alcotest.(check bool)
              "xmm" true
              (Reg.equal_xmm r (Reg.xmm_of_index (Reg.xmm_index r))))
          Reg.all_xmm);
    Alcotest.test_case "names by width" `Quick (fun () ->
        Alcotest.(check string) "64" "rax" (Reg.gp_name Reg.Q Reg.Rax);
        Alcotest.(check string) "32" "eax" (Reg.gp_name Reg.L Reg.Rax);
        Alcotest.(check string) "8" "r9b" (Reg.gp_name8 Reg.R9));
    Alcotest.test_case "name parsing" `Quick (fun () ->
        Alcotest.(check bool)
          "edi" true
          (match Reg.gp_of_name "edi" with
           | Some (Reg.L, Reg.Rdi) -> true
           | _ -> false);
        Alcotest.(check bool)
          "xmm13" true
          (match Reg.xmm_of_name "xmm13" with
           | Some Reg.Xmm13 -> true
           | _ -> false);
        Alcotest.(check bool) "bogus" true (Reg.gp_of_name "foo" = None));
  ]

(* ----- the former definitions, kept verbatim as references ----- *)

(* [Instr.hash] as it was defined over [Hashtbl.hash] of the opcode: the
   table-based one must return exactly these values, since the cost
   cache's key (and so its hits and the tests a search executes) is
   built from them. *)
module Former_hash = struct
  let[@inline] mix h v = (h lxor v) * 0x100000001b3

  let avalanche h =
    let h = (h lxor (h lsr 31)) * 0x2545f4914f6cdd1d in
    h lxor (h lsr 29)

  let hash (i : Instr.t) =
    let h = ref (mix 0x4bf29ce484222325 (Hashtbl.hash i.op)) in
    let ops = i.operands in
    for k = 0 to Array.length ops - 1 do
      match ops.(k) with
      | Operand.Gp r -> h := mix !h (2 + Reg.gp_index r)
      | Operand.Xmm r -> h := mix !h (32 + Reg.xmm_index r)
      | Operand.Imm v -> h := mix (mix !h 64) (Int64.to_int v)
      | Operand.Mem m ->
        h := mix !h 65;
        h :=
          mix !h
            (match m.Operand.base with
             | None -> 0
             | Some r -> 1 + Reg.gp_index r);
        (match m.Operand.index with
         | None -> h := mix !h 0
         | Some (r, s) -> h := mix (mix !h (1 + Reg.gp_index r)) s);
        h := mix !h m.Operand.disp
    done;
    avalanche !h
end

(* The liveness facts as they were defined, one match and one operand
   walk per fact; [Liveness.summary] derives them all in one pass. *)
module Former_liveness = struct
  open Liveness

  let mem_addr_uses (m : Operand.mem) =
    Locset.union
    (match m.base with
     | None -> Locset.empty
     | Some r -> Locset.singleton (Lgp r))
    (match m.index with
     | None -> Locset.empty
     | Some (r, _) -> Locset.singleton (Lgp r))

  let operand_read_uses = function
    | Operand.Gp r -> Locset.singleton (Lgp r)
    | Operand.Xmm r -> Locset.singleton (Lxmm r)
    | Operand.Imm _ -> Locset.empty
    | Operand.Mem m -> Locset.add Lmem (mem_addr_uses m)

  let operand_def = function
    | Operand.Gp r -> Locset.singleton (Lgp r)
    | Operand.Xmm r -> Locset.singleton (Lxmm r)
    | Operand.Imm _ -> Locset.empty
    | Operand.Mem _ -> Locset.singleton Lmem

  let defines_flags : Opcode.t -> bool = function
    | Add _ | Sub _ | Imul _ | And _ | Or _ | Xor _ | Neg _ | Inc _ | Dec _
    | Shl _ | Shr _ | Sar _ | Cmp _ | Test _ | Ucomiss | Ucomisd | Comiss
    | Comisd ->
      true
    | _ -> false

  let uses_flags : Opcode.t -> bool = function
    | Cmov _ | Setcc _ -> true
    | _ -> false

  let dst_is_source (i : Instr.t) =
    let from_mem =
      Array.length i.operands >= 2
      && (match i.operands.(0) with
          | Operand.Mem _ -> true
          | _ -> false)
    in
    match i.op with
    | Mov _ | Movabs | Lea _ | Cmp _ | Test _ -> false
    | Add _ | Sub _ | Imul _ | And _ | Or _ | Xor _ | Not _ | Neg _ | Inc _
    | Dec _ | Shl _ | Shr _ | Sar _ ->
      true
    | Cmov _ -> true
    | Setcc _ -> true
    | Movss | Movsd ->
      not from_mem
      && (match i.operands.(i.operands |> Array.length |> fun n -> n - 1) with
          | Operand.Xmm _ -> true
          | _ -> false)
    | Movaps | Movups | Lddqu | Movq | Movd -> false
    | Movlhps | Movhlps -> true
    | Addss | Addsd | Subss | Subsd | Mulss | Mulsd | Divss | Divsd | Minss
    | Minsd | Maxss | Maxsd ->
      true
    | Sqrtss | Sqrtsd -> true
    | Ucomiss | Ucomisd | Comiss | Comisd -> false
    | Andps | Andpd | Andnps | Orps | Orpd | Xorps | Xorpd | Pand | Por | Pxor
    | Paddd | Paddq | Psubd | Psubq | Addps | Addpd | Subps | Subpd | Mulps
    | Mulpd | Divps | Divpd | Minps | Maxps ->
      true
    | Shufps -> true
    | Pshufd | Pshuflw -> false
    | Punpckldq | Punpcklqdq | Unpcklps | Unpcklpd -> true
    | Pslld | Psrld | Psllq | Psrlq -> true
    | Cvtss2sd | Cvtsd2ss | Cvtsi2sd _ | Cvtsi2ss _ -> true
    | Cvttsd2si _ | Cvttss2si _ | Cvtsd2si _ -> false
    | Roundsd | Roundss -> true
    | Vaddss | Vaddsd | Vsubss | Vsubsd | Vmulss | Vmulsd | Vdivss | Vdivsd
    | Vminss | Vminsd | Vmaxss | Vmaxsd | Vsqrtsd | Vaddps | Vsubps | Vmulps
    | Vaddpd | Vmulpd | Vxorps | Vandps | Vpshuflw | Vunpcklps ->
      false
    | Vfmadd132sd | Vfmadd213sd | Vfmadd231sd | Vfmadd132ss | Vfmadd213ss
    | Vfmadd231ss | Vfnmadd213sd | Vfnmadd231sd | Vfmsub213sd ->
      true

  let has_dst (i : Instr.t) =
    match i.op with
    | Cmp _ | Test _ | Ucomiss | Ucomisd | Comiss | Comisd -> false
    | _ -> Array.length i.operands > 0

  let defs (i : Instr.t) =
    let n = Array.length i.operands in
    let base =
      if has_dst i && n > 0 then operand_def i.operands.(n - 1) else Locset.empty
    in
    if defines_flags i.op then Locset.add Lflags base else base

  let uses_via ~dst_read (i : Instr.t) =
    let ops = i.operands in
    let n = Array.length ops in
    let dst = if has_dst i then n - 1 else -1 in
    let acc = ref (if uses_flags i.op then Locset.singleton Lflags else Locset.empty) in
    for idx = 0 to n - 1 do
      let o = ops.(idx) in
      let read =
        if idx = dst then
          match o with
          | Operand.Mem m ->
            Locset.union (mem_addr_uses m)
              (if dst_read then Locset.singleton Lmem else Locset.empty)
          | Operand.Gp _ | Operand.Xmm _ ->
            if dst_read then operand_read_uses o else Locset.empty
          | Operand.Imm _ -> Locset.empty
        else
          match i.op, o with
          | Opcode.Lea _, Operand.Mem m -> mem_addr_uses m
          | _, _ -> operand_read_uses o
      in
      acc := Locset.union !acc read
    done;
    !acc

  let uses (i : Instr.t) = uses_via ~dst_read:(dst_is_source i) i

  let merge_only_dst (i : Instr.t) =
    match i.op with
    | Setcc _ -> true
    | Movss | Movsd -> dst_is_source i
    | Sqrtss | Sqrtsd | Cvtss2sd | Cvtsd2ss | Cvtsi2sd _ | Cvtsi2ss _
    | Roundsd | Roundss | Movlhps | Movhlps ->
      true
    | _ -> false

  let strict_uses (i : Instr.t) =
    uses_via ~dst_read:(dst_is_source i && not (merge_only_dst i)) i

  let kills_flags (i : Instr.t) =
    defines_flags i.op
    && (match i.op with
        | Inc _ | Dec _ -> false
        | Shl w | Shr w | Sar w ->
          Array.length i.operands > 0
          && (match i.operands.(0) with
              | Operand.Imm c ->
                let mask = match w with Reg.Q -> 63L | Reg.L -> 31L in
                not (Int64.equal (Int64.logand c mask) 0L)
              | Operand.Gp _ | Operand.Xmm _ | Operand.Mem _ -> false)
        | _ -> true)

  let kills (i : Instr.t) =
    let k = Locset.remove Lmem (defs i) in
    if kills_flags i then k else Locset.remove Lflags k

  let cannot_fault (i : Instr.t) =
    Instr.is_well_formed i
    && (match i.op with
        | Opcode.Lea _ -> true
        | _ ->
          Array.for_all
            (function
              | Operand.Mem _ -> false
              | Operand.Gp _ | Operand.Xmm _ | Operand.Imm _ -> true)
            i.operands)
end

(* Every instance of the opcode x shape matrix under every assignment
   ([Oracles.Matrix]), plus each opcode with one xmm operand, with too many
   and with a memory destination it does not admit: well-formed and
   ill-formed instructions alike. *)
let matrix_and_more =
  lazy
    (let m = Oracles.Matrix.instances in
     let ill =
       List.concat_map
         (fun op ->
           [ Instr.make_unchecked op [| Operand.Xmm Reg.Xmm1 |];
             Instr.make_unchecked op
               [| Operand.Imm 300L; Operand.mem Reg.Rdi; Operand.Xmm Reg.Xmm1 |];
             Instr.make_unchecked op [| Operand.Gp Reg.Rax; Operand.mem ~disp:8 Reg.Rsp |];
             Instr.make_unchecked op [| Operand.Imm 0L; Operand.Gp Reg.Rcx |] ])
         Opcode.all
     in
     List.concat
       [ m Oracles.Matrix.aliased; m (Oracles.Matrix.distinct ()); m Oracles.Matrix.extended;
         m Oracles.Matrix.rex_vex; m Oracles.Matrix.taint; ill ])

let opcode_tests =
  [
    Alcotest.test_case "catalogue size" `Quick (fun () ->
        Alcotest.(check bool)
          (Printf.sprintf "%d opcodes" (List.length Opcode.all))
          true
          (List.length Opcode.all > 140));
    Alcotest.test_case "to_string/of_string roundtrip for all" `Quick (fun () ->
        List.iter
          (fun op ->
            let name = Opcode.to_string op in
            match Opcode.all_of_string name with
            | [] -> Alcotest.failf "%s not parseable" name
            | candidates ->
              if not (List.exists (Opcode.equal op) candidates) then
                Alcotest.failf "%s parses to a different opcode" name)
          Opcode.all);
    Alcotest.test_case "every opcode has a shape" `Quick (fun () ->
        List.iter
          (fun op ->
            if Shape.shapes op = [] then
              Alcotest.failf "%s has no shape" (Opcode.to_string op))
          Opcode.all);
    Alcotest.test_case "every opcode has a latency" `Quick (fun () ->
        List.iter
          (fun op ->
            if Latency.of_opcode op <= 0 then
              Alcotest.failf "%s has non-positive latency" (Opcode.to_string op))
          Opcode.all);
    Alcotest.test_case "movq mnemonic is shared" `Quick (fun () ->
        Alcotest.(check int) "two movq" 2 (List.length (Opcode.all_of_string "movq")));
    Alcotest.test_case "index is the position in all" `Quick (fun () ->
        Alcotest.(check int) "count" (List.length Opcode.all) Opcode.count;
        List.iteri
          (fun k op ->
            if Opcode.index op <> k then
              Alcotest.failf "%s: index %d, position %d" (Opcode.to_string op)
                (Opcode.index op) k)
          Opcode.all);
    Alcotest.test_case "hash is Hashtbl.hash, and Instr.hash the former one" `Quick
      (fun () ->
        List.iter
          (fun op ->
            if Opcode.hash op <> Hashtbl.hash op then
              Alcotest.failf "%s: hash %d, Hashtbl.hash %d" (Opcode.to_string op)
                (Opcode.hash op) (Hashtbl.hash op))
          Opcode.all;
        let instances = Lazy.force matrix_and_more in
        List.iter
          (fun i ->
            if Instr.hash i <> Former_hash.hash i then
              Alcotest.failf "%s: Instr.hash %d, former %d" (Instr.to_string i)
                (Instr.hash i) (Former_hash.hash i))
          instances;
        Printf.printf "%d instructions hashed\n" (List.length instances));
    Alcotest.test_case "Instr.equal is structural equality" `Quick (fun () ->
        (* each instance against a fresh copy of itself and against its
           neighbours in the matrix, which differ in one opcode or
           operand *)
        let copy (i : Instr.t) : Instr.t = Marshal.from_string (Marshal.to_string i []) 0 in
        let a = Array.of_list (Lazy.force matrix_and_more) in
        Array.iteri
          (fun k i ->
            List.iter
              (fun j ->
                let j = a.(j) in
                let want = Stdlib.compare i j = 0 in
                if Instr.equal i (copy j) <> want then
                  Alcotest.failf "equal %s %s is not %b" (Instr.to_string i)
                    (Instr.to_string j) want)
              [ k; max 0 (k - 1); min (Array.length a - 1) (k + 1) ])
          a);
    Alcotest.test_case "equal is structural equality" `Quick (fun () ->
        (* every pair, each side also as a fresh copy, so no answer can
           come from physical identity alone *)
        let copy (op : Opcode.t) : Opcode.t = Marshal.from_string (Marshal.to_string op []) 0 in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let want = Stdlib.compare a b = 0 in
                if Opcode.equal a b <> want || Opcode.equal (copy a) (copy b) <> want then
                  Alcotest.failf "equal %s %s is not %b" (Opcode.to_string a)
                    (Opcode.to_string b) want)
              Opcode.all)
          Opcode.all);
  ]

let parser_tests =
  [
    Alcotest.test_case "simple instruction" `Quick (fun () ->
        let i = parse_i "addsd xmm1, xmm0" in
        Alcotest.(check string) "print" "addsd xmm1, xmm0" (Instr.to_string i));
    Alcotest.test_case "memory operand with displacement" `Quick (fun () ->
        let i = parse_i "mulss 8(rdi), xmm1" in
        Alcotest.(check string) "print" "mulss 8(rdi), xmm1" (Instr.to_string i));
    Alcotest.test_case "negative displacement" `Quick (fun () ->
        let i = parse_i "movq xmm0, -16(rsp)" in
        Alcotest.(check string) "print" "movq xmm0, -16(rsp)" (Instr.to_string i));
    Alcotest.test_case "base+index+scale" `Quick (fun () ->
        let i = parse_i "movl (rdi,rcx,4), eax" in
        Alcotest.(check string) "print" "movl (rdi,rcx,4), eax" (Instr.to_string i));
    Alcotest.test_case "immediates decimal and hex" `Quick (fun () ->
        ignore (parse_i "shlq $52, rcx");
        ignore (parse_i "movabs $0x3ff0000000000000, rax"));
    Alcotest.test_case "percent sigils accepted" `Quick (fun () ->
        let i = parse_i "addsd %xmm1, %xmm0" in
        Alcotest.(check string) "print" "addsd xmm1, xmm0" (Instr.to_string i));
    Alcotest.test_case "three-operand AVX" `Quick (fun () ->
        let i = parse_i "vaddss xmm0, xmm2, xmm5" in
        Alcotest.(check string) "print" "vaddss xmm0, xmm2, xmm5" (Instr.to_string i));
    Alcotest.test_case "movq disambiguation" `Quick (fun () ->
        let gp = parse_i "movq rax, rcx" in
        let sse = parse_i "movq rax, xmm0" in
        Alcotest.(check bool) "gp move" true (Opcode.equal gp.Instr.op (Opcode.Mov Reg.Q));
        Alcotest.(check bool) "sse move" true (Opcode.equal sse.Instr.op Opcode.Movq));
    Alcotest.test_case "unknown mnemonic rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "error" true
          (Result.is_error (Parser.parse_instr "frobnicate xmm0")));
    Alcotest.test_case "ill-shaped operands rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "error" true
          (Result.is_error (Parser.parse_instr "addsd rax, xmm0")));
    Alcotest.test_case "program with comments and blanks" `Quick (fun () ->
        let p =
          Parser.parse_program_exn
            "# header\n\n  addsd xmm1, xmm0  # body\n\nmulsd xmm2, xmm0\n"
        in
        Alcotest.(check int) "LOC" 2 (Program.length p));
    Alcotest.test_case "program error is located" `Quick (fun () ->
        match Parser.parse_program "addsd xmm1, xmm0\nbogus xmm1" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> Alcotest.(check int) "line" 2 e.Parser.line);
    Alcotest.test_case "roundtrip whole program" `Quick (fun () ->
        let text = Program.to_string Kernels.S3d.exp_program in
        let p = Parser.parse_program_exn text in
        Alcotest.(check bool) "equal" true (Program.equal p Kernels.S3d.exp_program));
  ]

let program_tests =
  [
    Alcotest.test_case "padding adds unused slots" `Quick (fun () ->
        let p = Program.with_padding 3 (Program.instrs Kernels.Aek_kernels.dot_rewrite) in
        Alcotest.(check int) "LOC" 6 (Program.length p);
        Alcotest.(check int) "slots" 9 (Program.slot_count p));
    Alcotest.test_case "hash of the shipped exp and sin is pinned" `Quick
      (fun () ->
        (* The cost cache and the benchmark's expected winners key on these
           values: a change to the hash must be deliberate. *)
        List.iter
          (fun (name, p, pad, expected) ->
            let q = Program.with_padding pad (Program.instrs p) in
            Alcotest.(check string)
              (Printf.sprintf "%s + %d unused" name pad)
              expected
              (Printf.sprintf "%016Lx" (Program.hash q)))
          [
            ("exp", Kernels.S3d.exp_program, 0, "2ab265ca11b727f8");
            ("exp", Kernels.S3d.exp_program, 4, "d3591e8f206fc378");
            ("sin", Kernels.Libimf.sin_spec.Sandbox.Spec.program, 0, "6dfa1364a9a0ac85");
            ("sin", Kernels.Libimf.sin_spec.Sandbox.Spec.program, 4, "1b86c0f6783c6355");
          ]);
    Alcotest.test_case "copy is deep for slots" `Quick (fun () ->
        let p = Program.with_padding 1 (Program.instrs Kernels.Aek_kernels.add_rewrite) in
        let q = Program.copy p in
        q.Program.slots.(0) <- Program.Unused;
        Alcotest.(check bool) "original intact" false (Program.equal p q));
  ]

(* Known-good encodings, cross-checked against gas/nasm output. *)
let encoder_cases =
  [
    ("addsd xmm1, xmm0", "f2 0f 58 c1");
    ("addss xmm1, xmm0", "f3 0f 58 c1");
    ("mulss 8(rdi), xmm1", "f3 0f 59 4f 08");
    ("movss (rdi), xmm0", "f3 0f 10 07");
    ("movss xmm0, (rdi)", "f3 0f 11 07");
    ("movq rax, xmm0", "66 48 0f 6e c0");
    ("movq xmm0, rax", "66 48 0f 7e c0");
    ("movq xmm0, -16(rsp)", "66 0f d6 44 24 f0");
    ("movq -16(rsp), xmm0", "f3 0f 7e 44 24 f0");
    ("movq rax, rcx", "48 89 c1");
    ("movl eax, ecx", "89 c1");
    ("movl $1, eax", "c7 c0 01 00 00 00");
    ("movabs $0x3ff0000000000000, rax", "48 b8 00 00 00 00 00 00 f0 3f");
    ("addq $1023, rcx", "48 81 c1 ff 03 00 00");
    ("shlq $52, rcx", "48 c1 e1 34");
    ("shrq $52, rax", "48 c1 e8 34");
    ("subq $1023, rax", "48 81 e8 ff 03 00 00");
    ("andq rdx, rcx", "48 21 d1");
    ("orq rdx, rcx", "48 09 d1");
    ("xorl eax, eax", "31 c0");
    ("cmpq rax, rcx", "48 39 c1");
    ("testq rax, rax", "48 85 c0");
    ("leaq 8(rdi), rax", "48 8d 47 08");
    ("imulq rcx, rax", "48 0f af c1");
    ("cmoveq rcx, rax", "48 0f 44 c1");
    ("sete al", "0f 94 c0");
    ("cvtsi2sdq rcx, xmm1", "f2 48 0f 2a c9");
    ("cvtsd2siq xmm1, rcx", "f2 48 0f 2d c9");
    ("cvttsd2siq xmm1, rcx", "f2 48 0f 2c c9");
    ("cvtss2sd xmm0, xmm1", "f3 0f 5a c8");
    ("sqrtsd xmm0, xmm1", "f2 0f 51 c8");
    ("ucomisd xmm1, xmm0", "66 0f 2e c1");
    ("xorps xmm1, xmm0", "0f 57 c1");
    ("pxor xmm1, xmm0", "66 0f ef c1");
    ("punpckldq xmm3, xmm0", "66 0f 62 c3");
    ("pshufd $1, xmm0, xmm4", "66 0f 70 e0 01");
    ("pshuflw $254, xmm0, xmm2", "f2 0f 70 d0 fe");
    ("psllq $52, xmm1", "66 0f 73 f1 34");
    ("movaps xmm1, xmm0", "0f 28 c1");
    ("lddqu (rdi), xmm2", "f2 0f f0 17");
    ("movd eax, xmm2", "66 0f 6e d0");
    ("movd xmm2, eax", "66 0f 7e d0");
    ("addps xmm2, xmm0", "0f 58 c2");
    ("mulpd xmm2, xmm0", "66 0f 59 c2");
    ("vaddss xmm0, xmm2, xmm5", "c5 ea 58 e8");
    ("vmulsd xmm1, xmm2, xmm3", "c5 eb 59 d9");
    ("vaddsd 8(rdi), xmm2, xmm3", "c5 eb 58 5f 08");
    ("vpshuflw $254, xmm0, xmm2", "c5 fb 70 d0 fe");
    ("vfmadd213sd xmm1, xmm2, xmm3", "c4 e2 e9 a9 d9");
    ("vfmadd213ss xmm1, xmm2, xmm3", "c4 e2 69 a9 d9");
    ("vfmadd231sd xmm1, xmm2, xmm3", "c4 e2 e9 b9 d9");
    ("roundsd $3, xmm1, xmm0", "66 0f 3a 0b c1 03");
    (* extended registers exercise REX/VEX R/X/B bits *)
    ("addsd xmm9, xmm10", "f2 45 0f 58 d1");
    ("movq r9, xmm8", "66 4d 0f 6e c1");
    ("movl (r8,r9,2), eax", "43 8b 04 48");
    ("vaddss xmm8, xmm2, xmm5", "c4 c1 6a 58 e8");
  ]

let encoder_tests =
  List.map
    (fun (asm, expect) ->
      Alcotest.test_case asm `Quick (fun () ->
          match Encoder.encode_instr (parse_i asm) with
          | Ok bytes -> Alcotest.(check string) asm expect (Encoder.hex bytes)
          | Error e -> Alcotest.failf "unencodable: %s" e))
    encoder_cases

let encoder_program_tests =
  [
    Alcotest.test_case "whole kernels are encodable" `Quick (fun () ->
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            match Encoder.encode_program spec.Sandbox.Spec.program with
            | Ok bytes ->
              Alcotest.(check bool)
                (name ^ " nonempty") true
                (String.length bytes > 0)
            | Error e -> Alcotest.failf "%s unencodable: %s" name e)
          (Kernels.Libimf.all @ Kernels.Aek_kernels.all_specs
          @ [ ("exp", Kernels.S3d.exp_spec) ]));
    Alcotest.test_case "rbp-based address forces disp8" `Quick (fun () ->
        match Encoder.encode_instr (parse_i "movq (rbp), xmm0") with
        | Ok bytes -> Alcotest.(check string) "disp8 form" "f3 0f 7e 45 00" (Encoder.hex bytes)
        | Error e -> Alcotest.failf "unencodable: %s" e);
  ]

let liveness_tests =
  let locset = Alcotest.testable
      (fun ppf s ->
        Format.pp_print_string ppf
          (String.concat "," (List.map Liveness.loc_to_string (Liveness.Locset.elements s))))
      Liveness.Locset.equal
  in
  [
    Alcotest.test_case "summary equals the former per-fact definitions" `Quick
      (fun () ->
        List.iter
          (fun i ->
            let s = Liveness.summary i in
            let what = Instr.to_string i in
            let same fact got want =
              if not (Liveness.Locset.equal got want) then
                Alcotest.failf "%s: %s %s, former %s" what fact
                  (String.concat "," (List.map Liveness.loc_to_string (Liveness.Locset.elements got)))
                  (String.concat "," (List.map Liveness.loc_to_string (Liveness.Locset.elements want)))
            in
            same "defs" s.Liveness.defs (Former_liveness.defs i);
            same "uses" s.Liveness.uses (Former_liveness.uses i);
            same "strict_uses" s.Liveness.strict_uses (Former_liveness.strict_uses i);
            same "kills" s.Liveness.kills (Former_liveness.kills i);
            if s.Liveness.cannot_fault <> Former_liveness.cannot_fault i then
              Alcotest.failf "%s: cannot_fault %b" what s.Liveness.cannot_fault;
            if Liveness.merge_only_dst i <> Former_liveness.merge_only_dst i then
              Alcotest.failf "%s: merge_only_dst %b" what (Liveness.merge_only_dst i);
            if Liveness.is_store i
               <> (Former_liveness.has_dst i
                  && match i.Instr.operands.(Array.length i.Instr.operands - 1) with
                     | Operand.Mem _ -> true
                     | _ -> false)
            then Alcotest.failf "%s: is_store %b" what (Liveness.is_store i))
          (Lazy.force matrix_and_more));
    Alcotest.test_case "Locset lists locations in compare order" `Quick
      (fun () ->
        (* flags, mem, GPs by index, XMMs by index: the order of
           [Stdlib.compare] on [loc], which diagnostics print in *)
        let all =
          (Liveness.Lflags :: Liveness.Lmem
           :: List.map (fun r -> Liveness.Lgp r) Reg.all_gp)
          @ List.map (fun r -> Liveness.Lxmm r) Reg.all_xmm
        in
        Alcotest.(check (list string)) "compare order"
          (List.map Liveness.loc_to_string (List.sort Stdlib.compare all))
          (List.map Liveness.loc_to_string all);
        let s = Liveness.Locset.of_list (List.rev all) in
        Alcotest.(check (list string)) "elements"
          (List.map Liveness.loc_to_string all)
          (List.map Liveness.loc_to_string (Liveness.Locset.elements s));
        let visited = ref [] in
        Liveness.Locset.iter (fun l -> visited := l :: !visited) s;
        Alcotest.(check bool) "iter" true (List.rev !visited = all);
        Alcotest.(check bool) "fold" true
          (List.rev (Liveness.Locset.fold List.cons s []) = all));
    Alcotest.test_case "Locset agrees with a reference set" `Quick (fun () ->
        let module R = Set.Make (struct
          type t = Liveness.loc

          let compare = Stdlib.compare
        end) in
        let all =
          (Liveness.Lflags :: Liveness.Lmem
           :: List.map (fun r -> Liveness.Lgp r) Reg.all_gp)
          @ List.map (fun r -> Liveness.Lxmm r) Reg.all_xmm
          |> Array.of_list
        in
        let g = Rng.Xoshiro256.create 34L in
        let random_locs () =
          List.init (Rng.Dist.int g 12) (fun _ -> Rng.Dist.choose g all)
        in
        let same what r s =
          if R.elements r <> Liveness.Locset.elements s then
            Alcotest.failf "%s differs" what
        in
        for _ = 1 to 2_000 do
          let la = random_locs () and lb = random_locs () in
          let ra = R.of_list la and rb = R.of_list lb in
          let a = Liveness.Locset.of_list la and b = Liveness.Locset.of_list lb in
          let l = Rng.Dist.choose g all in
          same "of_list" ra a;
          same "union" (R.union ra rb) (Liveness.Locset.union a b);
          same "diff" (R.diff ra rb) (Liveness.Locset.diff a b);
          same "add" (R.add l ra) (Liveness.Locset.add l a);
          same "remove" (R.remove l ra) (Liveness.Locset.remove l a);
          same "singleton" (R.singleton l) (Liveness.Locset.singleton l);
          let check what x y = if x <> y then Alcotest.failf "%s differs" what in
          check "mem" (R.mem l ra) (Liveness.Locset.mem l a);
          check "subset" (R.subset ra rb) (Liveness.Locset.subset a b);
          check "equal" (R.equal ra rb) (Liveness.Locset.equal a b);
          check "disjoint" (R.disjoint ra rb) (Liveness.Locset.disjoint a b);
          check "is_empty" (R.is_empty ra) (Liveness.Locset.is_empty a);
          let p = function Liveness.Lxmm _ -> false | _ -> true in
          check "for_all" (R.for_all p ra) (Liveness.Locset.for_all p a)
        done);
    Alcotest.test_case "mov defines dst, uses src" `Quick (fun () ->
        let i = parse_i "movq rax, rcx" in
        Alcotest.check locset "defs"
          (Liveness.Locset.singleton (Liveness.Lgp Reg.Rcx))
          (Liveness.defs i);
        Alcotest.check locset "uses"
          (Liveness.Locset.singleton (Liveness.Lgp Reg.Rax))
          (Liveness.uses i));
    Alcotest.test_case "addsd reads its destination" `Quick (fun () ->
        let i = parse_i "addsd xmm1, xmm0" in
        Alcotest.(check bool)
          "dst used" true
          (Liveness.Locset.mem (Liveness.Lxmm Reg.Xmm0) (Liveness.uses i)));
    Alcotest.test_case "store uses address registers" `Quick (fun () ->
        let i = parse_i "movss xmm0, -16(rsp)" in
        Alcotest.(check bool)
          "rsp used" true
          (Liveness.Locset.mem (Liveness.Lgp Reg.Rsp) (Liveness.uses i));
        Alcotest.(check bool)
          "mem defined" true
          (Liveness.Locset.mem Liveness.Lmem (Liveness.defs i)));
    Alcotest.test_case "load uses memory" `Quick (fun () ->
        let i = parse_i "movss (rdi), xmm0" in
        Alcotest.(check bool)
          "mem used" true
          (Liveness.Locset.mem Liveness.Lmem (Liveness.uses i)));
    Alcotest.test_case "cmp defines flags only" `Quick (fun () ->
        let i = parse_i "cmpq rax, rcx" in
        Alcotest.check locset "defs"
          (Liveness.Locset.singleton Liveness.Lflags)
          (Liveness.defs i));
    Alcotest.test_case "cmov uses flags" `Quick (fun () ->
        let i = parse_i "cmoveq rcx, rax" in
        Alcotest.(check bool)
          "flags used" true
          (Liveness.Locset.mem Liveness.Lflags (Liveness.uses i)));
    Alcotest.test_case "live_in of exp kernel is its argument" `Quick (fun () ->
        let live_out = Liveness.Locset.singleton (Liveness.Lxmm Reg.Xmm0) in
        let live_in = Liveness.live_in Kernels.S3d.exp_program ~live_out in
        Alcotest.(check bool)
          "xmm0 live in" true
          (Liveness.Locset.mem (Liveness.Lxmm Reg.Xmm0) live_in));
    Alcotest.test_case "dce removes a dead instruction" `Quick (fun () ->
        let p =
          Parser.parse_program_exn
            "mulsd xmm1, xmm0\nmovabs $5, rax\nmovq rax, xmm7"
        in
        let live_out = Liveness.Locset.singleton (Liveness.Lxmm Reg.Xmm0) in
        let q = Liveness.dce p ~live_out in
        Alcotest.(check int) "LOC after dce" 1 (Program.length q));
    Alcotest.test_case "dce keeps live chains" `Quick (fun () ->
        let live_out = Liveness.Locset.singleton (Liveness.Lxmm Reg.Xmm0) in
        let q = Liveness.dce Kernels.S3d.exp_program ~live_out in
        Alcotest.(check int)
          "nothing removed"
          (Program.length Kernels.S3d.exp_program)
          (Program.length q));
    Alcotest.test_case "dce keeps stores" `Quick (fun () ->
        let p = Parser.parse_program_exn "movss xmm0, -16(rsp)" in
        let q = Liveness.dce p ~live_out:Liveness.Locset.empty in
        Alcotest.(check int) "store kept" 1 (Program.length q));
  ]

let critical_path_tests =
  [
    Alcotest.test_case "empty program has zero path" `Quick (fun () ->
        Alcotest.(check int) "zero" 0
          (Critical_path.of_program (Program.of_instrs [])));
    Alcotest.test_case "serial chain equals the latency sum" `Quick (fun () ->
        let p =
          Parser.parse_program_exn
            "addsd xmm1, xmm0\nmulsd xmm0, xmm0\nsqrtsd xmm0, xmm0"
        in
        Alcotest.(check int) "chain" (Latency.of_program p)
          (Critical_path.of_program p));
    Alcotest.test_case "independent instructions run in parallel" `Quick (fun () ->
        let p =
          Parser.parse_program_exn "mulsd xmm1, xmm1\nmulsd xmm2, xmm2\nmulsd xmm3, xmm3"
        in
        Alcotest.(check int) "one mul deep" (Latency.of_opcode Opcode.Mulsd)
          (Critical_path.of_program p));
    Alcotest.test_case "joins take the slower input" `Quick (fun () ->
        (* divsd (20) and addsd (3) feed a final addsd: path = 20 + 3 *)
        let p =
          Parser.parse_program_exn
            "divsd xmm2, xmm1\naddsd xmm4, xmm3\naddsd xmm1, xmm3"
        in
        Alcotest.(check int) "path"
          (Latency.of_opcode Opcode.Divsd + Latency.of_opcode Opcode.Addsd)
          (Critical_path.of_program p));
    Alcotest.test_case "memory accesses serialize" `Quick (fun () ->
        let p =
          Parser.parse_program_exn
            "movss xmm0, -16(rsp)\nmovss -16(rsp), xmm1"
        in
        let store = Latency.of_instr (parse_i "movss xmm0, -16(rsp)") in
        let load = Latency.of_instr (parse_i "movss -16(rsp), xmm1") in
        Alcotest.(check int) "ordered" (store + load) (Critical_path.of_program p));
    Alcotest.test_case "path never exceeds the latency sum" `Quick (fun () ->
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            let p = spec.Sandbox.Spec.program in
            if Critical_path.of_program p > Latency.of_program p then
              Alcotest.failf "%s: path exceeds sum" name)
          (Kernels.Libimf.all @ Kernels.Aek_kernels.all_specs));
    Alcotest.test_case "flags dependences are tracked" `Quick (fun () ->
        let p = Parser.parse_program_exn "cmpq rcx, rax\ncmoveq rdx, rbx" in
        Alcotest.(check int) "serial"
          (Latency.of_opcode (Opcode.Cmp Reg.Q) + Latency.of_opcode (Opcode.Cmov (Opcode.E, Reg.Q)))
          (Critical_path.of_program p));
  ]

let lowering_tests =
  [
    Alcotest.test_case "sin lowers to a runnable single kernel" `Quick (fun () ->
        match
          Lowering.lower_to_single Kernels.Libimf.sin_spec.Sandbox.Spec.program
            ~abi:[ Reg.Xmm0 ]
        with
        | Error e -> Alcotest.failf "lowering failed: %s" e
        | Ok lowered ->
          (* body + one entry and one exit convert *)
          Alcotest.(check int)
            "LOC" (Program.length Kernels.Libimf.sin_spec.Sandbox.Spec.program + 2)
            (Program.length lowered);
          (* runs clean and lands within a single-precision error budget *)
          let e = Validate.Errfn.create Kernels.Libimf.sin_spec ~rewrite:lowered in
          let u = Validate.Errfn.eval_ulp e [| 0.5 |] in
          Alcotest.(check bool)
            (Printf.sprintf "%s ULPs at 0.5 within single budget" (Ulp.to_string u))
            true
            (Ulp.compare u Ulp.eta_single <= 0));
    Alcotest.test_case "lowered kernel uses no double arithmetic" `Quick (fun () ->
        match
          Lowering.lower_to_single Kernels.Libimf.cos_spec.Sandbox.Spec.program
            ~abi:[ Reg.Xmm0 ]
        with
        | Error e -> Alcotest.failf "lowering failed: %s" e
        | Ok lowered ->
          List.iter
            (fun (i : Instr.t) ->
              if Opcode.is_sse_scalar_f64 i.Instr.op then
                Alcotest.failf "double op survived: %s" (Instr.to_string i))
            (Program.instrs lowered));
    Alcotest.test_case "bit-manipulating kernels are rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "log rejected" true
          (Result.is_error
             (Lowering.lower_to_single Kernels.Libimf.log_spec.Sandbox.Spec.program
                ~abi:[ Reg.Xmm0 ]));
        Alcotest.(check bool)
          "s3d exp rejected" true
          (Result.is_error
             (Lowering.lower_to_single Kernels.S3d.exp_program ~abi:[ Reg.Xmm0 ])));
    Alcotest.test_case "constant pairs are narrowed" `Quick (fun () ->
        let p =
          Parser.parse_program_exn
            "movabs $0x3ff0000000000000, rax\nmovq rax, xmm1\naddsd xmm1, xmm0"
        in
        match Lowering.lower_to_single p ~abi:[ Reg.Xmm0 ] with
        | Error e -> Alcotest.failf "lowering failed: %s" e
        | Ok lowered ->
          let has op =
            List.exists
              (fun (i : Instr.t) -> Opcode.equal i.Instr.op op)
              (Program.instrs lowered)
          in
          Alcotest.(check bool) "movl" true (has (Opcode.Mov Reg.L));
          Alcotest.(check bool) "movd" true (has Opcode.Movd);
          Alcotest.(check bool) "addss" true (has Opcode.Addss);
          Alcotest.(check bool) "no movabs" false (has Opcode.Movabs));
  ]

let latency_tests =
  [
    Alcotest.test_case "divide slower than add" `Quick (fun () ->
        Alcotest.(check bool)
          "divsd > addsd" true
          (Latency.of_opcode Opcode.Divsd > Latency.of_opcode Opcode.Addsd));
    Alcotest.test_case "memory penalty applies" `Quick (fun () ->
        let reg = parse_i "addsd xmm1, xmm0" in
        let mem = parse_i "addsd 8(rdi), xmm0" in
        Alcotest.(check int)
          "penalty"
          (Latency.of_instr reg + Latency.mem_penalty)
          (Latency.of_instr mem));
    Alcotest.test_case "lea exempt from memory penalty" `Quick (fun () ->
        let i = parse_i "leaq 8(rdi), rax" in
        Alcotest.(check int) "lat" (Latency.of_opcode (Opcode.Lea Reg.Q)) (Latency.of_instr i));
    Alcotest.test_case "program latency is the sum" `Quick (fun () ->
        let p = Parser.parse_program_exn "addsd xmm1, xmm0\nmulsd xmm2, xmm0" in
        Alcotest.(check int)
          "sum"
          (Latency.of_opcode Opcode.Addsd + Latency.of_opcode Opcode.Mulsd)
          (Latency.of_program p));
  ]

let decoder_tests =
  [
    Alcotest.test_case "encode/decode roundtrip of known cases" `Quick (fun () ->
        List.iter
          (fun (asm, _) ->
            let i = parse_i asm in
            match Encoder.encode_instr i with
            | Error e -> Alcotest.failf "%s unencodable: %s" asm e
            | Ok bytes ->
              (match Decoder.decode_instr bytes ~pos:0 with
               | Error e -> Alcotest.failf "%s undecodable: %s" asm e
               | Ok (j, consumed) ->
                 Alcotest.(check int)
                   (asm ^ " length") (String.length bytes) consumed;
                 if not (Instr.equal i j) then
                   Alcotest.failf "%s decoded as %s" asm (Instr.to_string j)))
          encoder_cases);
    Alcotest.test_case "whole kernels roundtrip through bytes" `Quick (fun () ->
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            let p = spec.Sandbox.Spec.program in
            match Encoder.encode_program p with
            | Error e -> Alcotest.failf "%s unencodable: %s" name e
            | Ok bytes ->
              (match Decoder.decode_all bytes with
               | Error e -> Alcotest.failf "%s undecodable: %s" name e
               | Ok instrs ->
                 let q = Program.of_instrs instrs in
                 if not (Program.equal p q) then
                   Alcotest.failf "%s roundtrip mismatch:\n%s\n---\n%s" name
                     (Program.to_string p) (Program.to_string q)))
          (Kernels.Libimf.all @ Kernels.Aek_kernels.all_specs
          @ [ ("exp", Kernels.S3d.exp_spec) ]));
    Alcotest.test_case "disassemble formats text" `Quick (fun () ->
        let bytes =
          Result.get_ok (Encoder.encode_instr (parse_i "addsd xmm1, xmm0"))
        in
        Alcotest.(check (result string string))
          "text" (Ok "addsd xmm1, xmm0")
          (Decoder.disassemble bytes));
    Alcotest.test_case "truncated input reports an error" `Quick (fun () ->
        Alcotest.(check bool)
          "error" true
          (Result.is_error (Decoder.decode_instr "\x48" ~pos:0)));
  ]

(* Decoding tolerance for the one known print asymmetry: [test] is
   flag-only and commutative, and the encoder canonicalizes its
   mem-source form, so the decoded operands may come back swapped. *)
let roundtrip_equal (i : Instr.t) (j : Instr.t) =
  Instr.equal i j
  || (match i.Instr.op with
      | Opcode.Test _ ->
        Opcode.equal i.Instr.op j.Instr.op
        && Array.length i.Instr.operands = 2
        && Operand.equal i.Instr.operands.(0) j.Instr.operands.(1)
        && Operand.equal i.Instr.operands.(1) j.Instr.operands.(0)
      | _ -> false)

(* Exhaustive encode↔decode round-trip: every opcode × shape instance,
   with the matrix's operand variants that exercise the REX/VEX extension
   bits, SIB scaling, and negative displacements ([Matrix.rex_vex]).
   Instances the encoder rejects are merely counted (the native engine
   falls back to batched for those); everything it accepts must decode
   back to the same instruction from exactly the bytes it produced. *)
let roundtrip_tests =
  [
    Alcotest.test_case "decode inverts encode on every opcode shape" `Quick
      (fun () ->
        let checked = ref 0 and unencodable = ref 0 in
        List.iter
          (fun i ->
            match Encoder.encode_instr i with
            | Error _ -> incr unencodable
            | Ok bytes ->
              (match Decoder.decode_instr bytes ~pos:0 with
               | Error e ->
                 Alcotest.failf "%s undecodable (%s): %s" (Instr.to_string i)
                   (Encoder.hex bytes) e
               | Ok (j, consumed) ->
                 incr checked;
                 if consumed <> String.length bytes then
                   Alcotest.failf "%s: decoded %d of %d bytes" (Instr.to_string i)
                     consumed (String.length bytes);
                 if not (roundtrip_equal i j) then
                   Alcotest.failf "%s decoded as %s (%s)" (Instr.to_string i)
                     (Instr.to_string j) (Encoder.hex bytes)))
          (Oracles.Matrix.instances Oracles.Matrix.rex_vex);
        (* guard against a silent encoder regression that starts
           rejecting whole swaths of the catalogue *)
        Alcotest.(check bool)
          (Printf.sprintf "%d instances round-tripped (%d unencodable)"
             !checked !unencodable)
          true
          (!checked > 500));
    Alcotest.test_case "setcc on rsp..rdi selects spl..dil via bare REX"
      `Quick (fun () ->
        List.iter
          (fun (r, expect) ->
            let i =
              Instr.make_unchecked (Opcode.Setcc Opcode.E) [| Operand.Gp r |]
            in
            match Encoder.encode_instr i with
            | Error e ->
              Alcotest.failf "%s unencodable: %s" (Instr.to_string i) e
            | Ok bytes ->
              Alcotest.(check string)
                (Instr.to_string i) expect (Encoder.hex bytes);
              (match Decoder.decode_instr bytes ~pos:0 with
               | Ok (j, _) when Instr.equal i j -> ()
               | Ok (j, _) ->
                 Alcotest.failf "%s decoded as %s" (Instr.to_string i)
                   (Instr.to_string j)
               | Error e ->
                 Alcotest.failf "%s undecodable: %s" (Instr.to_string i) e))
          [
            (Reg.Rsp, "40 0f 94 c4");
            (Reg.Rbp, "40 0f 94 c5");
            (Reg.Rsi, "40 0f 94 c6");
            (Reg.Rdi, "40 0f 94 c7");
          ]);
    Alcotest.test_case "64-bit immediates beyond imm32 are rejected" `Quick
      (fun () ->
        List.iter
          (fun op ->
            let i =
              Instr.make_unchecked op
                [| Operand.Imm 0x1_0000_0000L; Operand.Gp Reg.Rcx |]
            in
            Alcotest.(check bool)
              (Instr.to_string i ^ " rejected")
              true
              (Result.is_error (Encoder.encode_instr i)))
          [ Opcode.Add Reg.Q; Opcode.Mov Reg.Q; Opcode.Test Reg.Q ]);
  ]

(* property: print→parse roundtrip over randomly assembled instructions *)
let prop_print_parse_roundtrip =
  let spec = Kernels.Aek_kernels.delta_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let gen_instr =
    QCheck.make (fun st ->
        let seed = Int64.of_int (QCheck.Gen.int_bound 1_000_000 st) in
        let g = Rng.Xoshiro256.create seed in
        Search.Pools.random_instr g pools)
  in
  QCheck.Test.make ~name:"print/parse roundtrip of random instructions"
    ~count:500 gen_instr (fun i ->
      match Parser.parse_instr (Instr.to_string i) with
      | Ok j -> Instr.equal i j
      | Error _ -> false)

let prop_random_instrs_encodable =
  let spec = Kernels.S3d.exp_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let gen_instr =
    QCheck.make (fun st ->
        let seed = Int64.of_int (QCheck.Gen.int_bound 1_000_000 st) in
        let g = Rng.Xoshiro256.create seed in
        Search.Pools.random_instr g pools)
  in
  QCheck.Test.make ~name:"random pool instructions are encodable" ~count:500
    gen_instr (fun i -> Result.is_ok (Encoder.encode_instr i))

let prop_encode_decode_roundtrip =
  let spec = Kernels.Aek_kernels.delta_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let gen_instr =
    QCheck.make (fun st ->
        let seed = Int64.of_int (QCheck.Gen.int_bound 10_000_000 st) in
        let g = Rng.Xoshiro256.create seed in
        Search.Pools.random_instr g pools)
  in
  QCheck.Test.make ~name:"decode inverts encode on random instructions"
    ~count:1000 gen_instr (fun i ->
      match Encoder.encode_instr i with
      | Error _ -> false
      | Ok bytes ->
        (match Decoder.decode_instr bytes ~pos:0 with
         | Error _ -> false
         | Ok (j, consumed) ->
           (* test is flag-only and commutative; the encoder canonicalizes
              its mem-source form, so accept the operand swap *)
           let same =
             Instr.equal i j
             || (match i.Instr.op with
                 | Opcode.Test _ ->
                   Opcode.equal i.Instr.op j.Instr.op
                   && Array.length i.Instr.operands = 2
                   && Operand.equal i.Instr.operands.(0) j.Instr.operands.(1)
                   && Operand.equal i.Instr.operands.(1) j.Instr.operands.(0)
                 | _ -> false)
           in
           consumed = String.length bytes && same))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_roundtrip; prop_random_instrs_encodable;
      prop_encode_decode_roundtrip ]

let () =
  Alcotest.run "x86"
    [
      ("reg", reg_tests);
      ("opcode", opcode_tests);
      ("parser", parser_tests);
      ("program", program_tests);
      ("encoder", encoder_tests);
      ("encoder-programs", encoder_program_tests);
      ("decoder", decoder_tests);
      ("roundtrip", roundtrip_tests);
      ("liveness", liveness_tests);
      ("critical-path", critical_path_tests);
      ("lowering", lowering_tests);
      ("latency", latency_tests);
      ("properties", props);
    ]

(* Compiled execution engine: translate a program once into an array of
   pre-specialized closures over one machine, then run that trace across
   many test cases.

   Specialization happens at compile time, once per changed slot (see
   [memo] below): operands are resolved to byte offsets into the
   machine's unboxed register file, immediates are pre-extended,
   effective-address code is picked per addressing mode, [Unused] slots
   are elided, per-instruction latencies are prefix-summed, and faults
   are raised through a local exception
   instead of threading a [result] through every step.  The run loop is
   then just an array of [unit -> unit] calls.

   Bit-identical by construction: every closure mirrors the corresponding
   arm of {!Semantics.step} — same read order, same fault order, same
   fault messages — and all value-level arithmetic (flag computation,
   rounding, lane plumbing) is shared with the interpreter via
   {!Semantics}'s exported helpers.  Opcodes without a specialized
   translation fall back to a closure around [Semantics.step] itself, so
   the two engines cannot diverge on them. *)

open X86

exception Fault of Semantics.fault

type t = {
  steps : (unit -> unit) array;
  lat_prefix : int array;
      (* lat_prefix.(k) = cycles after executing the first k closures *)
}

(* Operand byte offsets into [Machine.regs], read and written in place
   with no write barrier. *)
let xi = Machine.xmm_offset
let gi = Machine.gp_offset
let[@inline] get regs o = Bytes.get_int64_le regs o
let[@inline] set regs o v = Bytes.set_int64_le regs o v

let lo32 = 0xffff_ffffL
let hi32_mask = 0xffff_ffff_0000_0000L

(* A fault known at compile time still fires in operand order at run
   time, so raising closures are built per slot below. *)

let generic_closure (m : Machine.t) (i : Instr.t) : unit -> unit =
 fun () ->
  match Semantics.step m i with
  | Ok () -> ()
  | Error f -> raise (Fault f)

let specialize (m : Machine.t) (i : Instr.t) : unit -> unit =
  let regs = m.Machine.regs in
  let mem = m.Machine.mem in
  let ops = i.Instr.operands in
  let n = Array.length ops in
  let dst = ops.(n - 1) in
  (* ----- operand resolution (compile-time) ----- *)
  let eff (mm : Operand.mem) : unit -> int64 =
    let d = Int64.of_int mm.Operand.disp in
    match mm.Operand.base, mm.Operand.index with
    | None, None -> fun () -> d
    | Some b, None ->
      let bi = gi b in
      fun () -> Int64.add (get regs bi) d
    | None, Some (r, s) ->
      let ri = gi r and sc = Int64.of_int s in
      fun () -> Int64.add (Int64.mul (get regs ri) sc) d
    | Some b, Some (r, s) ->
      let bi = gi b and ri = gi r and sc = Int64.of_int s in
      fun () ->
        Int64.add (Int64.add (get regs bi) (Int64.mul (get regs ri) sc)) d
  in
  let read_int w (o : Operand.t) : unit -> int64 =
    match o with
    | Operand.Gp r ->
      let k = gi r in
      (match w with
       | Reg.Q -> fun () -> get regs k
       | Reg.L -> fun () -> Int64.logand (get regs k) lo32)
    | Operand.Imm v ->
      let v = match w with Reg.Q -> v | Reg.L -> Int64.logand v lo32 in
      fun () -> v
    | Operand.Mem mm ->
      let ea = eff mm and nb = Semantics.width_bytes w in
      fun () -> Memory.read_exn mem (ea ()) nb
    | Operand.Xmm _ ->
      fun () -> raise (Fault (Semantics.Sigill "xmm operand in integer context"))
  in
  let write_int w (o : Operand.t) : int64 -> unit =
    match o with
    | Operand.Gp r ->
      let k = gi r in
      (match w with
       | Reg.Q -> fun v -> set regs k v
       | Reg.L -> fun v -> set regs k (Int64.logand v lo32))
    | Operand.Mem mm ->
      let ea = eff mm and nb = Semantics.width_bytes w in
      fun v -> Memory.write_exn mem (ea ()) nb v
    | Operand.Imm _ | Operand.Xmm _ ->
      fun _ -> raise (Fault (Semantics.Sigill "bad integer destination"))
  in
  let read_q (o : Operand.t) : unit -> int64 =
    match o with
    | Operand.Xmm r ->
      let k = xi r in
      fun () -> get regs k
    | Operand.Mem mm ->
      let ea = eff mm in
      fun () -> Memory.read_exn mem (ea ()) 8
    | Operand.Gp r ->
      let k = gi r in
      fun () -> get regs k
    | Operand.Imm _ ->
      fun () -> raise (Fault (Semantics.Sigill "immediate in xmm context"))
  in
  let read_d (o : Operand.t) : unit -> int64 =
    match o with
    | Operand.Xmm r ->
      let k = xi r in
      fun () -> Int64.logand (get regs k) lo32
    | Operand.Mem mm ->
      let ea = eff mm in
      fun () -> Memory.read_exn mem (ea ()) 4
    | Operand.Gp r ->
      let k = gi r in
      fun () -> Int64.logand (get regs k) lo32
    | Operand.Imm _ ->
      fun () -> raise (Fault (Semantics.Sigill "immediate in xmm context"))
  in
  let read_f64 o =
    let r = read_q o in
    fun () -> Int64.float_of_bits (r ())
  in
  let read_f32 o =
    let r = read_d o in
    fun () -> Int32.float_of_bits (Int64.to_int32 (r ()))
  in
  let read_x128 ~aligned (o : Operand.t) : unit -> int64 * int64 =
    match o with
    | Operand.Xmm r ->
      let k = xi r in
      fun () -> (get regs k, get regs (k + 8))
    | Operand.Mem mm ->
      let ea = eff mm in
      fun () -> Memory.read128_exn ~aligned mem (ea ())
    | Operand.Gp _ | Operand.Imm _ ->
      fun () -> raise (Fault (Semantics.Sigill "bad 128-bit source"))
  in
  let set_f32_at k v =
    let bits32 = Int64.of_int32 (Int32.bits_of_float v) in
    set regs k
      (Int64.logor (Int64.logand (get regs k) hi32_mask) (Int64.logand bits32 lo32))
  in
  let get_f32_at k = Int32.float_of_bits (Int64.to_int32 (get regs k)) in
  (* ----- shared instruction templates ----- *)
  let bad_dst_after (pre : (unit -> unit) list) msg =
    fun () ->
      List.iter (fun f -> f ()) pre;
      raise (Fault (Semantics.Sigill msg))
  in
  let scalar_f64 f =
    let rx = read_f64 ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let k = xi d in
      fun () ->
        let x = rx () in
        let old = Int64.float_of_bits (get regs k) in
        set regs k (Int64.bits_of_float (f old x))
    | _ -> bad_dst_after [ (fun () -> ignore (rx ())) ] "expected xmm destination"
  in
  let scalar_f32 f =
    let rx = read_f32 ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let k = xi d in
      fun () ->
        let x = rx () in
        set_f32_at k (f (get_f32_at k) x)
    | _ -> bad_dst_after [ (fun () -> ignore (rx ())) ] "expected xmm destination"
  in
  let packed_bitop f =
    let rs = read_x128 ~aligned:false ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let k = xi d in
      fun () ->
        let slo, shi = rs () in
        set regs k (f (get regs k) slo);
        set regs (k + 8) (f (get regs (k + 8)) shi)
    | _ -> bad_dst_after [ (fun () -> ignore (rs ())) ] "expected xmm destination"
  in
  let packed_f32 f =
    let rs = read_x128 ~aligned:false ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let k = xi d in
      fun () ->
        let s = rs () in
        let lo, hi = Semantics.map_lanes4_f32 f (get regs k, get regs (k + 8)) s in
        set regs k lo;
        set regs (k + 8) hi
    | _ -> bad_dst_after [ (fun () -> ignore (rs ())) ] "expected xmm destination"
  in
  let packed_f64 f =
    let rs = read_x128 ~aligned:false ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let k = xi d in
      fun () ->
        let s = rs () in
        let lo, hi = Semantics.map_lanes2_f64 f (get regs k, get regs (k + 8)) s in
        set regs k lo;
        set regs (k + 8) hi
    | _ -> bad_dst_after [ (fun () -> ignore (rs ())) ] "expected xmm destination"
  in
  let avx3_f64 f =
    let rx2 = read_f64 ops.(0) and rx1 = read_f64 ops.(1) in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s1 ->
      let dk = xi d and s1k = xi s1 in
      fun () ->
        let x2 = rx2 () in
        let x1 = rx1 () in
        let hi1 = get regs (s1k + 8) in
        set regs dk (Int64.bits_of_float (f x1 x2));
        set regs (dk + 8) hi1
    | _ ->
      bad_dst_after
        [ (fun () -> ignore (rx2 ())); (fun () -> ignore (rx1 ())) ]
        "expected xmm destination"
  in
  let avx3_f32 f =
    let rx2 = read_f32 ops.(0) and rx1 = read_f32 ops.(1) in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s1 ->
      let dk = xi d and s1k = xi s1 in
      fun () ->
        let x2 = rx2 () in
        let x1 = rx1 () in
        let lo1 = get regs s1k and hi1 = get regs (s1k + 8) in
        let res = Semantics.dword_of (Fp32.round (f x1 x2)) in
        set regs dk (Int64.logor (Int64.logand lo1 hi32_mask) res);
        set regs (dk + 8) hi1
    | _ ->
      bad_dst_after
        [ (fun () -> ignore (rx2 ())); (fun () -> ignore (rx1 ())) ]
        "expected xmm destination"
  in
  let avx3_packed128 f =
    let rs2 = read_x128 ~aligned:false ops.(0) in
    let rs1 = read_x128 ~aligned:false ops.(1) in
    match dst with
    | Operand.Xmm d ->
      let k = xi d in
      fun () ->
        let s2 = rs2 () in
        let s1 = rs1 () in
        let lo, hi = f s1 s2 in
        set regs k lo;
        set regs (k + 8) hi
    | _ ->
      bad_dst_after
        [ (fun () -> ignore (rs2 ())); (fun () -> ignore (rs1 ())) ]
        "expected xmm destination"
  in
  let fma_f64 pick neg_prod sub_addend =
    let rx3 = read_f64 ops.(0) in
    let prod_sign = if neg_prod then -1.0 else 1.0 in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s2 ->
      let dk = xi d and s2k = xi s2 in
      fun () ->
        let x3 = rx3 () in
        let x2 = Int64.float_of_bits (get regs s2k) in
        let x1 = Int64.float_of_bits (get regs dk) in
        let a, b, c = pick x1 x2 x3 in
        let addend = if sub_addend then -.c else c in
        set regs dk (Int64.bits_of_float (Float.fma (prod_sign *. a) b addend))
    | _ -> bad_dst_after [ (fun () -> ignore (rx3 ())) ] "expected xmm destination"
  in
  let fma_f32 pick =
    let rx3 = read_f32 ops.(0) in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s2 ->
      let dk = xi d and s2k = xi s2 in
      fun () ->
        let x3 = rx3 () in
        let x2 = get_f32_at s2k in
        let x1 = get_f32_at dk in
        let a, b, c = pick x1 x2 x3 in
        set_f32_at dk (Fp32.round (Float.fma a b c))
    | _ -> bad_dst_after [ (fun () -> ignore (rx3 ())) ] "expected xmm destination"
  in
  (* GP two-operand arithmetic: read dst, read src, flags, write —
     exactly the interpreter's order. *)
  let gp_arith w combine =
    let ra = read_int w dst and rb = read_int w ops.(0) in
    let wr = write_int w dst in
    fun () ->
      let a = ra () in
      let b = rb () in
      wr (combine a b)
  in
  let fallback () = generic_closure m i in
  match i.Instr.op with
  (* ----- GP ----- *)
  | Opcode.Mov w ->
    let rv = read_int w ops.(0) and wr = write_int w dst in
    fun () -> wr (rv ())
  | Opcode.Movabs ->
    (match ops.(0) with
     | Operand.Imm v ->
       let wr = write_int Reg.Q dst in
       fun () -> wr v
     | _ -> fun () -> raise (Fault (Semantics.Sigill "expected immediate")))
  | Opcode.Lea w ->
    (match ops.(0) with
     | Operand.Mem mm ->
       let ea = eff mm and wr = write_int w dst in
       fun () -> wr (ea ())
     | _ -> fun () -> raise (Fault (Semantics.Sigill "lea needs a memory source")))
  | Opcode.Add w ->
    gp_arith w (fun a b ->
        let r = Int64.add a b in
        Semantics.set_add_flags m w a b r;
        Semantics.trunc w r)
  | Opcode.Sub w ->
    gp_arith w (fun a b ->
        let r = Int64.sub a b in
        Semantics.set_sub_flags m w a b r;
        Semantics.trunc w r)
  | Opcode.Imul w ->
    gp_arith w (fun a b ->
        let r = Int64.mul (Semantics.signed w a) (Semantics.signed w b) in
        Semantics.set_logic_flags m w r;
        Semantics.trunc w r)
  | Opcode.And w ->
    gp_arith w (fun a b ->
        let r = Int64.logand a b in
        Semantics.set_logic_flags m w r;
        r)
  | Opcode.Or w ->
    gp_arith w (fun a b ->
        let r = Int64.logor a b in
        Semantics.set_logic_flags m w r;
        r)
  | Opcode.Xor w ->
    gp_arith w (fun a b ->
        let r = Int64.logxor a b in
        Semantics.set_logic_flags m w r;
        r)
  | Opcode.Not w ->
    let ra = read_int w dst and wr = write_int w dst in
    fun () -> wr (Semantics.trunc w (Int64.lognot (ra ())))
  | Opcode.Neg w ->
    let ra = read_int w dst and wr = write_int w dst in
    fun () ->
      let a = ra () in
      let r = Int64.neg (Semantics.signed w a) in
      Semantics.set_sub_flags m w 0L a r;
      wr (Semantics.trunc w r)
  | Opcode.Inc w ->
    let ra = read_int w dst and wr = write_int w dst in
    let flags = m.Machine.flags in
    fun () ->
      let a = ra () in
      let r = Int64.add a 1L in
      let saved_cf = flags.Machine.cf in
      Semantics.set_add_flags m w a 1L r;
      flags.Machine.cf <- saved_cf;
      wr (Semantics.trunc w r)
  | Opcode.Dec w ->
    let ra = read_int w dst and wr = write_int w dst in
    let flags = m.Machine.flags in
    fun () ->
      let a = ra () in
      let r = Int64.sub a 1L in
      let saved_cf = flags.Machine.cf in
      Semantics.set_sub_flags m w a 1L r;
      flags.Machine.cf <- saved_cf;
      wr (Semantics.trunc w r)
  | Opcode.Shl w | Opcode.Shr w | Opcode.Sar w ->
    (match ops.(0) with
     | Operand.Imm c ->
       let ra = read_int w dst and wr = write_int w dst in
       let bits = match w with Reg.Q -> 64 | Reg.L -> 32 in
       let c = Int64.to_int c land (if bits = 64 then 63 else 31) in
       if c = 0 then fun () -> wr (Semantics.trunc w (ra ()))
       else
         let shift =
           match i.Instr.op with
           | Opcode.Shl _ -> fun a -> Int64.shift_left a c
           | Opcode.Shr _ -> fun a -> Int64.shift_right_logical (Semantics.trunc w a) c
           | _ -> fun a -> Int64.shift_right (Semantics.signed w a) c
         in
         fun () ->
           let r = shift (ra ()) in
           Semantics.set_logic_flags m w r;
           wr (Semantics.trunc w r)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "expected immediate")))
  | Opcode.Cmp w ->
    let ra = read_int w dst and rb = read_int w ops.(0) in
    fun () ->
      let a = ra () in
      let b = rb () in
      Semantics.set_sub_flags m w a b (Int64.sub a b)
  | Opcode.Test w ->
    let ra = read_int w dst and rb = read_int w ops.(0) in
    fun () ->
      let a = ra () in
      let b = rb () in
      Semantics.set_logic_flags m w (Int64.logand a b)
  | Opcode.Cmov (c, w) ->
    let rv = read_int w ops.(0) and wr = write_int w dst in
    fun () -> if Semantics.cond_holds m c then wr (rv ())
  | Opcode.Setcc c ->
    (match dst with
     | Operand.Gp r ->
       let k = gi r in
       fun () ->
         let bit = if Semantics.cond_holds m c then 1L else 0L in
         set regs k (Int64.logor (Int64.logand (get regs k) (-256L)) bit)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "setcc needs a register")))
  (* ----- SSE moves ----- *)
  | Opcode.Movss ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sk = xi s and dk = xi d in
       fun () ->
         let lo_s = Int64.logand (get regs sk) lo32 in
         set regs dk (Int64.logor (Int64.logand (get regs dk) hi32_mask) lo_s)
     | Operand.Mem mm, Operand.Xmm d ->
       let ea = eff mm and dk = xi d in
       fun () ->
         let v = Memory.read_exn mem (ea ()) 4 in
         set regs dk v;
         set regs (dk + 8) 0L
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sk = xi s in
       fun () -> Memory.write_exn mem (ea ()) 4 (Int64.logand (get regs sk) lo32)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "movss operands")))
  | Opcode.Movsd ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sk = xi s and dk = xi d in
       fun () -> set regs dk (get regs sk)
     | Operand.Mem mm, Operand.Xmm d ->
       let ea = eff mm and dk = xi d in
       fun () ->
         let v = Memory.read_exn mem (ea ()) 8 in
         set regs dk v;
         set regs (dk + 8) 0L
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sk = xi s in
       fun () -> Memory.write_exn mem (ea ()) 8 (get regs sk)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "movsd operands")))
  | Opcode.Movaps | Opcode.Movups | Opcode.Lddqu ->
    let aligned = i.Instr.op = Opcode.Movaps in
    (match ops.(0), dst with
     | (Operand.Xmm _ | Operand.Mem _), Operand.Xmm d ->
       let rv = read_x128 ~aligned ops.(0) in
       let dk = xi d in
       fun () ->
         let lo, hi = rv () in
         set regs dk lo;
         set regs (dk + 8) hi
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sk = xi s in
       fun () ->
         Memory.write128_exn ~aligned mem (ea ()) (get regs sk, get regs (sk + 8))
     | _ -> fun () -> raise (Fault (Semantics.Sigill "128-bit move operands")))
  | Opcode.Movq ->
    (match ops.(0), dst with
     | (Operand.Xmm _ | Operand.Mem _ | Operand.Gp _), Operand.Xmm d ->
       let rv = read_q ops.(0) in
       let dk = xi d in
       fun () ->
         set regs dk (rv ());
         set regs (dk + 8) 0L
     | Operand.Xmm s, Operand.Gp d ->
       let sk = xi s and dk = gi d in
       fun () -> set regs dk (get regs sk)
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sk = xi s in
       fun () -> Memory.write_exn mem (ea ()) 8 (get regs sk)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "movq operands")))
  | Opcode.Movd ->
    (match ops.(0), dst with
     | Operand.Gp s, Operand.Xmm d ->
       let sk = gi s and dk = xi d in
       fun () ->
         set regs dk (Int64.logand (get regs sk) lo32);
         set regs (dk + 8) 0L
     | Operand.Xmm s, Operand.Gp d ->
       let sk = xi s and dk = gi d in
       fun () -> set regs dk (Int64.logand (get regs sk) lo32)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "movd operands")))
  | Opcode.Movlhps ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sk = xi s and dk = xi d in
       fun () -> set regs (dk + 8) (get regs sk)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "expected xmm destination")))
  | Opcode.Movhlps ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sk = xi s and dk = xi d in
       fun () -> set regs dk (get regs (sk + 8))
     | _ -> fun () -> raise (Fault (Semantics.Sigill "expected xmm destination")))
  (* ----- scalar FP ----- *)
  | Opcode.Addsd -> scalar_f64 (fun old x -> old +. x)
  | Opcode.Subsd -> scalar_f64 (fun old x -> old -. x)
  | Opcode.Mulsd -> scalar_f64 (fun old x -> old *. x)
  | Opcode.Divsd -> scalar_f64 (fun old x -> old /. x)
  | Opcode.Sqrtsd -> scalar_f64 (fun _ x -> Float.sqrt x)
  | Opcode.Minsd -> scalar_f64 (fun old x -> Semantics.sse_min_f64 ~dst_old:old ~src:x)
  | Opcode.Maxsd -> scalar_f64 (fun old x -> Semantics.sse_max_f64 ~dst_old:old ~src:x)
  | Opcode.Addss -> scalar_f32 Fp32.add
  | Opcode.Subss -> scalar_f32 Fp32.sub
  | Opcode.Mulss -> scalar_f32 Fp32.mul
  | Opcode.Divss -> scalar_f32 Fp32.div
  | Opcode.Sqrtss -> scalar_f32 (fun _ x -> Fp32.sqrt x)
  | Opcode.Minss -> scalar_f32 Fp32.min
  | Opcode.Maxss -> scalar_f32 Fp32.max
  | Opcode.Ucomisd | Opcode.Comisd ->
    let rs = read_f64 ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dk = xi d in
       fun () ->
         let s = rs () in
         Semantics.set_fp_compare_flags m (Int64.float_of_bits (get regs dk)) s
     | _ -> bad_dst_after [ (fun () -> ignore (rs ())) ] "expected xmm destination")
  | Opcode.Ucomiss | Opcode.Comiss ->
    let rs = read_f32 ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dk = xi d in
       fun () ->
         let s = rs () in
         Semantics.set_fp_compare_flags m (get_f32_at dk) s
     | _ -> bad_dst_after [ (fun () -> ignore (rs ())) ] "expected xmm destination")
  (* ----- packed logic / integer ----- *)
  | Opcode.Andps | Opcode.Andpd | Opcode.Pand -> packed_bitop Int64.logand
  | Opcode.Orps | Opcode.Orpd | Opcode.Por -> packed_bitop Int64.logor
  | Opcode.Xorps | Opcode.Xorpd | Opcode.Pxor -> packed_bitop Int64.logxor
  | Opcode.Andnps -> packed_bitop (fun d s -> Int64.logand (Int64.lognot d) s)
  | Opcode.Paddq -> packed_bitop Int64.add
  | Opcode.Psubq -> packed_bitop Int64.sub
  (* ----- packed FP ----- *)
  | Opcode.Addps -> packed_f32 Fp32.add
  | Opcode.Subps -> packed_f32 Fp32.sub
  | Opcode.Mulps -> packed_f32 Fp32.mul
  | Opcode.Divps -> packed_f32 Fp32.div
  | Opcode.Minps -> packed_f32 Fp32.min
  | Opcode.Maxps -> packed_f32 Fp32.max
  | Opcode.Addpd -> packed_f64 ( +. )
  | Opcode.Subpd -> packed_f64 ( -. )
  | Opcode.Mulpd -> packed_f64 ( *. )
  | Opcode.Divpd -> packed_f64 ( /. )
  (* ----- converts ----- *)
  | Opcode.Cvtss2sd ->
    let rx = read_f32 ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dk = xi d in
       fun () -> set regs dk (Int64.bits_of_float (rx ()))
     | _ -> bad_dst_after [ (fun () -> ignore (rx ())) ] "expected xmm destination")
  | Opcode.Cvtsd2ss ->
    let rx = read_f64 ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dk = xi d in
       fun () -> set_f32_at dk (Fp32.round (rx ()))
     | _ -> bad_dst_after [ (fun () -> ignore (rx ())) ] "expected xmm destination")
  | Opcode.Cvtsi2sd w ->
    let rv = read_int w ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dk = xi d in
       fun () ->
         set regs dk
           (Int64.bits_of_float (Int64.to_float (Semantics.signed w (rv ()))))
     | _ -> bad_dst_after [ (fun () -> ignore (rv ())) ] "expected xmm destination")
  | Opcode.Cvtsi2ss w ->
    let rv = read_int w ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dk = xi d in
       fun () ->
         set_f32_at dk (Fp32.round (Int64.to_float (Semantics.signed w (rv ()))))
     | _ -> bad_dst_after [ (fun () -> ignore (rv ())) ] "expected xmm destination")
  | Opcode.Cvttsd2si w ->
    let rx = read_f64 ops.(0) and wr = write_int w dst in
    let conv = match w with Reg.Q -> Semantics.f2i64 | Reg.L -> Semantics.f2i32 in
    fun () -> wr (conv (Float.trunc (rx ())))
  | Opcode.Cvttss2si w ->
    let rx = read_f32 ops.(0) and wr = write_int w dst in
    let conv = match w with Reg.Q -> Semantics.f2i64 | Reg.L -> Semantics.f2i32 in
    fun () -> wr (conv (Float.trunc (rx ())))
  | Opcode.Cvtsd2si w ->
    let rx = read_f64 ops.(0) and wr = write_int w dst in
    let conv = match w with Reg.Q -> Semantics.f2i64 | Reg.L -> Semantics.f2i32 in
    fun () -> wr (conv (Semantics.rint_even (rx ())))
  | Opcode.Roundsd ->
    (match ops.(0) with
     | Operand.Imm mode ->
       let rx = read_f64 ops.(1) in
       let round =
         match Int64.to_int mode land 3 with
         | 0 -> Semantics.rint_even
         | 1 -> Float.floor
         | 2 -> Float.ceil
         | _ -> Float.trunc
       in
       (match dst with
        | Operand.Xmm d ->
          let dk = xi d in
          fun () -> set regs dk (Int64.bits_of_float (round (rx ())))
        | _ ->
          bad_dst_after [ (fun () -> ignore (rx ())) ] "expected xmm destination")
     | _ -> fun () -> raise (Fault (Semantics.Sigill "expected immediate")))
  | Opcode.Roundss ->
    (match ops.(0) with
     | Operand.Imm mode ->
       let rx = read_f32 ops.(1) in
       let round =
         match Int64.to_int mode land 3 with
         | 0 -> Semantics.rint_even
         | 1 -> Float.floor
         | 2 -> Float.ceil
         | _ -> Float.trunc
       in
       (match dst with
        | Operand.Xmm d ->
          let dk = xi d in
          fun () -> set_f32_at dk (Fp32.round (round (rx ())))
        | _ ->
          bad_dst_after [ (fun () -> ignore (rx ())) ] "expected xmm destination")
     | _ -> fun () -> raise (Fault (Semantics.Sigill "expected immediate")))
  (* ----- AVX three-operand ----- *)
  | Opcode.Vaddsd -> avx3_f64 ( +. )
  | Opcode.Vsubsd -> avx3_f64 ( -. )
  | Opcode.Vmulsd -> avx3_f64 ( *. )
  | Opcode.Vdivsd -> avx3_f64 ( /. )
  | Opcode.Vminsd -> avx3_f64 (fun a b -> Semantics.sse_min_f64 ~dst_old:a ~src:b)
  | Opcode.Vmaxsd -> avx3_f64 (fun a b -> Semantics.sse_max_f64 ~dst_old:a ~src:b)
  | Opcode.Vsqrtsd -> avx3_f64 (fun _ b -> Float.sqrt b)
  | Opcode.Vaddss -> avx3_f32 Fp32.add
  | Opcode.Vsubss -> avx3_f32 Fp32.sub
  | Opcode.Vmulss -> avx3_f32 Fp32.mul
  | Opcode.Vdivss -> avx3_f32 Fp32.div
  | Opcode.Vminss -> avx3_f32 Fp32.min
  | Opcode.Vmaxss -> avx3_f32 Fp32.max
  | Opcode.Vaddps -> avx3_packed128 (fun a b -> Semantics.map_lanes4_f32 Fp32.add a b)
  | Opcode.Vsubps -> avx3_packed128 (fun a b -> Semantics.map_lanes4_f32 Fp32.sub a b)
  | Opcode.Vmulps -> avx3_packed128 (fun a b -> Semantics.map_lanes4_f32 Fp32.mul a b)
  | Opcode.Vaddpd -> avx3_packed128 (fun a b -> Semantics.map_lanes2_f64 ( +. ) a b)
  | Opcode.Vmulpd -> avx3_packed128 (fun a b -> Semantics.map_lanes2_f64 ( *. ) a b)
  | Opcode.Vxorps ->
    avx3_packed128 (fun (alo, ahi) (blo, bhi) ->
        (Int64.logxor alo blo, Int64.logxor ahi bhi))
  | Opcode.Vandps ->
    avx3_packed128 (fun (alo, ahi) (blo, bhi) ->
        (Int64.logand alo blo, Int64.logand ahi bhi))
  | Opcode.Vunpcklps ->
    avx3_packed128 (fun a b ->
        let la = Semantics.lanes4 a and lb = Semantics.lanes4 b in
        Semantics.join4 [| la.(0); lb.(0); la.(1); lb.(1) |])
  (* ----- FMA ----- *)
  | Opcode.Vfmadd132sd -> fma_f64 (fun x1 x2 x3 -> (x1, x3, x2)) false false
  | Opcode.Vfmadd213sd -> fma_f64 (fun x1 x2 x3 -> (x2, x1, x3)) false false
  | Opcode.Vfmadd231sd -> fma_f64 (fun x1 x2 x3 -> (x2, x3, x1)) false false
  | Opcode.Vfnmadd213sd -> fma_f64 (fun x1 x2 x3 -> (x2, x1, x3)) true false
  | Opcode.Vfnmadd231sd -> fma_f64 (fun x1 x2 x3 -> (x2, x3, x1)) true false
  | Opcode.Vfmsub213sd -> fma_f64 (fun x1 x2 x3 -> (x2, x1, x3)) false true
  | Opcode.Vfmadd132ss -> fma_f32 (fun x1 x2 x3 -> (x1, x3, x2))
  | Opcode.Vfmadd213ss -> fma_f32 (fun x1 x2 x3 -> (x2, x1, x3))
  | Opcode.Vfmadd231ss -> fma_f32 (fun x1 x2 x3 -> (x2, x3, x1))
  (* Shuffles, packed 32-bit integer ops, and vector shifts are rare in
     FP kernels; they run through the reference interpreter, which keeps
     them bit-identical by construction. *)
  | Opcode.Shufps | Opcode.Pshufd | Opcode.Pshuflw | Opcode.Punpckldq
  | Opcode.Punpcklqdq | Opcode.Unpcklps | Opcode.Unpcklpd | Opcode.Paddd
  | Opcode.Psubd | Opcode.Pslld | Opcode.Psrld | Opcode.Psllq | Opcode.Psrlq
  | Opcode.Vpshuflw ->
    fallback ()

let instr_closure (m : Machine.t) (i : Instr.t) : unit -> unit =
  (* Operand arrays are resolved eagerly during specialization; an
     instruction with no operands (unconstructible via the mutation
     pools, but cheap to guard) goes through the interpreter so any
     failure surfaces at run time, matching [Exec.run]. *)
  if Array.length i.Instr.operands = 0 then generic_closure m i
  else specialize m i

(* The per-slot translation memo.  Slot [k] remembers the instruction it
   translated last ([instrs.(k)], compared physically) with its closure
   and latency; instructions are never mutated in place (see [Instr]), so
   a slot still holding that very instruction reuses them.  A proposal
   changes one or two slots, so a prepare translates only those. *)
type memo = {
  machine : Machine.t;
  mutable instrs : Instr.t array;
  mutable closures : (unit -> unit) array;
  mutable lats : int array;
}

(* Physically distinct from every instruction of every program. *)
let untranslated = Instr.make_unchecked Opcode.Movabs [||]
let nop () = ()
let memo m = { machine = m; instrs = [||]; closures = [||]; lats = [||] }

let prepare (memo : memo) (p : Program.t) : t =
  let slots = p.Program.slots in
  let n = Array.length slots in
  if Array.length memo.instrs < n then begin
    memo.instrs <- Array.make n untranslated;
    memo.closures <- Array.make n nop;
    memo.lats <- Array.make n 0
  end;
  let active = ref 0 in
  for k = 0 to n - 1 do
    match slots.(k) with
    | Program.Unused -> ()
    | Program.Active i ->
      incr active;
      if memo.instrs.(k) != i then begin
        memo.instrs.(k) <- i;
        memo.closures.(k) <- instr_closure memo.machine i;
        memo.lats.(k) <- Latency.of_instr i
      end
  done;
  (* Fresh arrays: an earlier [t] from this memo stays valid. *)
  let steps = Array.make !active nop in
  let lat_prefix = Array.make (!active + 1) 0 in
  let pos = ref 0 in
  for k = 0 to n - 1 do
    match slots.(k) with
    | Program.Unused -> ()
    | Program.Active _ ->
      steps.(!pos) <- memo.closures.(k);
      lat_prefix.(!pos + 1) <- lat_prefix.(!pos) + memo.lats.(k);
      incr pos
  done;
  { steps; lat_prefix }

let compile m p = prepare (memo m) p

let length t = Array.length t.steps

let exec (t : t) : Exec.result =
  let steps = t.steps in
  let n = Array.length steps in
  let i = ref 0 in
  let outcome =
    try
      while !i < n do
        steps.(!i) ();
        incr i
      done;
      Exec.Finished
    with
    | Fault f ->
      incr i;
      Exec.Faulted f
    | Memory.Fault_exn mf ->
      incr i;
      Exec.Faulted (Semantics.Segv (Memory.fault_to_string mf))
  in
  let executed = !i in
  let cycles = t.lat_prefix.(executed) in
  if Exec.Counters.is_enabled () then
    Exec.Counters.record ~run_cycles:cycles ~run_instrs:executed
      ~faulted:(match outcome with Exec.Finished -> false | Exec.Faulted _ -> true);
  { Exec.outcome; cycles; executed }

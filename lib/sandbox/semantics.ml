open X86

type fault =
  | Segv of string
  | Sigfpe of string
  | Sigill of string

let fault_to_string = function
  | Segv s -> "SIGSEGV: " ^ s
  | Sigfpe s -> "SIGFPE: " ^ s
  | Sigill s -> "SIGILL: " ^ s

let equal_fault a b =
  match a, b with
  | Segv x, Segv y | Sigfpe x, Sigfpe y | Sigill x, Sigill y -> String.equal x y
  | (Segv _ | Sigfpe _ | Sigill _), _ -> false

let eff_addr (m : Machine.t) (mem : Operand.mem) =
  let base =
    match mem.Operand.base with
    | None -> 0L
    | Some r -> Machine.get_gp m r
  in
  let idx =
    match mem.Operand.index with
    | None -> 0L
    | Some (r, s) -> Int64.mul (Machine.get_gp m r) (Int64.of_int s)
  in
  Int64.add (Int64.add base idx) (Int64.of_int mem.Operand.disp)

let ( let* ) = Result.bind

let mem_err f = Error (Segv (Memory.fault_to_string f))

let lift = function
  | Ok v -> Ok v
  | Error f -> mem_err f

(* ----- GP operand access ----- *)

let read_gp_w (m : Machine.t) w r =
  match w with
  | Reg.Q -> Machine.get_gp m r
  | Reg.L -> Machine.get_gp32 m r

let write_gp_w (m : Machine.t) w r v =
  match w with
  | Reg.Q -> Machine.set_gp m r v
  | Reg.L -> Machine.set_gp32 m r v

let width_bytes = function
  | Reg.Q -> 8
  | Reg.L -> 4

(* Read an integer operand of the given GP width (immediates are
   sign-extended as the hardware does for imm32). *)
let read_int (m : Machine.t) w (o : Operand.t) =
  match o with
  | Operand.Gp r -> Ok (read_gp_w m w r)
  | Operand.Imm v ->
    (match w with
     | Reg.Q -> Ok v
     | Reg.L -> Ok (Int64.logand v 0xffff_ffffL))
  | Operand.Mem mem -> lift (Memory.read m.Machine.mem (eff_addr m mem) (width_bytes w))
  | Operand.Xmm _ -> Error (Sigill "xmm operand in integer context")

let write_int (m : Machine.t) w (o : Operand.t) v =
  match o with
  | Operand.Gp r ->
    write_gp_w m w r v;
    Ok ()
  | Operand.Mem mem -> lift (Memory.write m.Machine.mem (eff_addr m mem) (width_bytes w) v)
  | Operand.Imm _ | Operand.Xmm _ -> Error (Sigill "bad integer destination")

(* Sign-extended view for signed flag computation. *)
let signed w v =
  match w with
  | Reg.Q -> v
  | Reg.L -> Int64.of_int32 (Int64.to_int32 v)

let msb w v =
  match w with
  | Reg.Q -> Int64.compare v 0L < 0
  | Reg.L -> Int64.compare (Int64.logand v 0x8000_0000L) 0L <> 0

let trunc w v =
  match w with
  | Reg.Q -> v
  | Reg.L -> Int64.logand v 0xffff_ffffL

let parity v =
  (* PF reflects the low byte only. *)
  let b = Int64.to_int (Int64.logand v 0xffL) in
  let rec pop acc n = if n = 0 then acc else pop (acc + (n land 1)) (n lsr 1) in
  pop 0 b mod 2 = 0

let set_logic_flags (m : Machine.t) w result =
  let f = m.Machine.flags in
  f.cf <- false;
  f.o_f <- false;
  f.zf <- Int64.equal (trunc w result) 0L;
  f.sf <- msb w result;
  f.pf <- parity result

let set_add_flags (m : Machine.t) w a b result =
  let f = m.Machine.flags in
  let a' = trunc w a and b' = trunc w b and r' = trunc w result in
  f.zf <- Int64.equal r' 0L;
  f.sf <- msb w r';
  f.pf <- parity r';
  (* carry: unsigned overflow *)
  f.cf <- Int64.unsigned_compare r' a' < 0 || Int64.unsigned_compare r' b' < 0;
  (match w with
   | Reg.Q -> ()
   | Reg.L -> f.cf <- Int64.unsigned_compare r' a' < 0);
  let sa = msb w a' and sb = msb w b' and sr = msb w r' in
  f.o_f <- sa = sb && sr <> sa

let set_sub_flags (m : Machine.t) w a b result =
  (* a - b *)
  let f = m.Machine.flags in
  let a' = trunc w a and b' = trunc w b and r' = trunc w result in
  f.zf <- Int64.equal r' 0L;
  f.sf <- msb w r';
  f.pf <- parity r';
  f.cf <- Int64.unsigned_compare a' b' < 0;
  let sa = msb w a' and sb = msb w b' and sr = msb w r' in
  f.o_f <- sa <> sb && sr <> sa

let cond_holds (m : Machine.t) (c : Opcode.cond) =
  let f = m.Machine.flags in
  match c with
  | Opcode.E -> f.zf
  | Opcode.Ne -> not f.zf
  | Opcode.L -> f.sf <> f.o_f
  | Opcode.Le -> f.zf || f.sf <> f.o_f
  | Opcode.G -> (not f.zf) && f.sf = f.o_f
  | Opcode.Ge -> f.sf = f.o_f
  | Opcode.B -> f.cf
  | Opcode.Be -> f.cf || f.zf
  | Opcode.A -> (not f.cf) && not f.zf
  | Opcode.Ae -> not f.cf
  | Opcode.S -> f.sf
  | Opcode.P -> f.pf

(* ----- XMM operand access ----- *)

let read_xmm128 (m : Machine.t) ?(aligned = false) (o : Operand.t) =
  match o with
  | Operand.Xmm r -> Ok (Machine.get_xmm m r)
  | Operand.Mem mem -> lift (Memory.read128 ~aligned m.Machine.mem (eff_addr m mem))
  | Operand.Gp _ | Operand.Imm _ -> Error (Sigill "bad 128-bit source")

let read_q (m : Machine.t) (o : Operand.t) =
  match o with
  | Operand.Xmm r -> Ok (Machine.get_xmm_lo m r)
  | Operand.Mem mem -> lift (Memory.read m.Machine.mem (eff_addr m mem) 8)
  | Operand.Gp r -> Ok (Machine.get_gp m r)
  | Operand.Imm _ -> Error (Sigill "immediate in xmm context")

let read_d (m : Machine.t) (o : Operand.t) =
  match o with
  | Operand.Xmm r -> Ok (Int64.logand (Machine.get_xmm_lo m r) 0xffff_ffffL)
  | Operand.Mem mem -> lift (Memory.read m.Machine.mem (eff_addr m mem) 4)
  | Operand.Gp r -> Ok (Machine.get_gp32 m r)
  | Operand.Imm _ -> Error (Sigill "immediate in xmm context")

let read_f64 m o = Result.map Int64.float_of_bits (read_q m o)

let read_f32 m o =
  Result.map (fun bits -> Int32.float_of_bits (Int64.to_int32 bits)) (read_d m o)

let dst_xmm (o : Operand.t) =
  match o with
  | Operand.Xmm r -> Ok r
  | Operand.Gp _ | Operand.Imm _ | Operand.Mem _ -> Error (Sigill "expected xmm destination")

let imm_val (o : Operand.t) =
  match o with
  | Operand.Imm v -> Ok v
  | _ -> Error (Sigill "expected immediate")

(* SSE min/max semantics: when unordered or equal, the result is the second
   source (AT&T first operand). *)
let sse_min_f64 ~dst_old ~src = if dst_old < src then dst_old else src
let sse_max_f64 ~dst_old ~src = if dst_old > src then dst_old else src

(* Round to nearest, ties to even (the default MXCSR mode). *)
let rint_even x =
  if Float.is_nan x || Float.is_integer x then x
  else begin
    let lo = Float.floor x in
    let hi = Float.ceil x in
    let dlo = x -. lo and dhi = hi -. x in
    if dlo < dhi then lo
    else if dhi < dlo then hi
    else if Float.rem lo 2. = 0. then lo
    else hi
  end

(* x86's NaN rules for the roundings and the fused multiply-adds.  A NaN
   operand comes back quieted: the quiet bit (bit 51) set, sign and
   payload kept, never negated.  An invalid operation with no NaN operand
   (∞·0, ∞−∞) gives the default NaN, the negative quiet NaN with a zero
   payload. *)
let quiet_nan x =
  Int64.float_of_bits (Int64.logor (Int64.bits_of_float x) 0x0008_0000_0000_0000L)

let default_nan = Int64.float_of_bits 0xfff8_0000_0000_0000L

let rounding mode =
  let round =
    match Int64.to_int mode land 3 with
    | 0 -> rint_even
    | 1 -> Float.floor
    | 2 -> Float.ceil
    | _ -> Float.trunc
  in
  fun x -> if Float.is_nan x then quiet_nan x else round x

(* The one table of the FMA forms: the formula a·b + c of each, on its
   Intel operands x1 = dest, x2 = vvvv, x3 = r/m, with the product or the
   addend negated in the vfnmadd/vfmsub forms.  A NaN is looked for in
   a, b, c order.  The single-precision forms compute on the operands
   widened to double; their callers round the result to binary32. *)
let fma (op : Opcode.t) =
  let fused ~neg_prod ~neg_add a b c =
    if Float.is_nan a then quiet_nan a
    else if Float.is_nan b then quiet_nan b
    else if Float.is_nan c then quiet_nan c
    else
      let r = Float.fma (if neg_prod then -.a else a) b (if neg_add then -.c else c) in
      if Float.is_nan r then default_nan else r
  in
  let plain = fused ~neg_prod:false ~neg_add:false in
  match op with
  | Opcode.Vfmadd132sd | Opcode.Vfmadd132ss -> fun x1 x2 x3 -> plain x1 x3 x2
  | Opcode.Vfmadd213sd | Opcode.Vfmadd213ss -> fun x1 x2 x3 -> plain x2 x1 x3
  | Opcode.Vfmadd231sd | Opcode.Vfmadd231ss -> fun x1 x2 x3 -> plain x2 x3 x1
  | Opcode.Vfnmadd213sd -> fun x1 x2 x3 -> fused ~neg_prod:true ~neg_add:false x2 x1 x3
  | Opcode.Vfnmadd231sd -> fun x1 x2 x3 -> fused ~neg_prod:true ~neg_add:false x2 x3 x1
  | Opcode.Vfmsub213sd -> fun x1 x2 x3 -> fused ~neg_prod:false ~neg_add:true x2 x1 x3
  | _ -> invalid_arg ("Semantics.fma: " ^ Opcode.to_string op)

(* Float → int64 conversion with the x86 "integer indefinite" result on
   overflow or NaN. *)
let f2i64 x =
  if Float.is_nan x || x >= 0x1p63 || x < -0x1p63 then Int64.min_int
  else Int64.of_float x

let f2i32 x =
  if Float.is_nan x || x >= 0x1p31 || x < -.0x1p31 then 0x8000_0000L
  else Int64.logand (Int64.of_int32 (Int32.of_float x)) 0xffff_ffffL

let dword_of f32 = Int64.logand (Int64.of_int32 (Int32.bits_of_float f32)) 0xffff_ffffL

(* Split / join 32-bit lanes of a 128-bit value. *)
let lanes4 (lo, hi) =
  [| Int64.logand lo 0xffff_ffffL;
     Int64.shift_right_logical lo 32;
     Int64.logand hi 0xffff_ffffL;
     Int64.shift_right_logical hi 32 |]

let join4 l =
  ( Int64.logor (Int64.logand l.(0) 0xffff_ffffL) (Int64.shift_left l.(1) 32),
    Int64.logor (Int64.logand l.(2) 0xffff_ffffL) (Int64.shift_left l.(3) 32) )

let map_lanes4_f32 f a b =
  let la = lanes4 a and lb = lanes4 b in
  let out = Array.make 4 0L in
  for i = 0 to 3 do
    let x = Int32.float_of_bits (Int64.to_int32 la.(i)) in
    let y = Int32.float_of_bits (Int64.to_int32 lb.(i)) in
    out.(i) <- dword_of (f x y)
  done;
  join4 out

let map_lanes2_f64 f (alo, ahi) (blo, bhi) =
  let g x y = Int64.bits_of_float (f (Int64.float_of_bits x) (Int64.float_of_bits y)) in
  (g alo blo, g ahi bhi)

(* ----- flag helpers for ucomis* ----- *)

let set_fp_compare_flags (m : Machine.t) a b =
  let f = m.Machine.flags in
  f.o_f <- false;
  f.sf <- false;
  if Float.is_nan a || Float.is_nan b then begin
    f.zf <- true;
    f.pf <- true;
    f.cf <- true
  end
  else if a < b then begin
    (* AT&T: ucomisd src, dst compares dst against src; callers pass
       (dst, src) as (a, b)?  We pass a = dst value, b = src value:
       dst < src → CF. *)
    f.zf <- false;
    f.pf <- false;
    f.cf <- true
  end
  else if a > b then begin
    f.zf <- false;
    f.pf <- false;
    f.cf <- false
  end
  else begin
    f.zf <- true;
    f.pf <- false;
    f.cf <- false
  end

(* ----- the interpreter ----- *)

let step (m : Machine.t) (i : Instr.t) : (unit, fault) result =
  let ops = i.Instr.operands in
  let n = Array.length ops in
  let src k = ops.(k) in
  let dst () = ops.(n - 1) in
  let scalar_f64 f =
    let* x = read_f64 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let old = Machine.get_f64 m d in
    Machine.set_f64 m d (f ~dst_old:old ~src:x);
    Ok ()
  in
  let scalar_f32 f =
    let* x = read_f32 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let old = Machine.get_f32 m d in
    Machine.set_f32 m d (f ~dst_old:old ~src:x);
    Ok ()
  in
  let packed_bitop f =
    let* s = read_xmm128 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let dlo, dhi = Machine.get_xmm m d in
    let slo, shi = s in
    Machine.set_xmm m d (f dlo slo, f dhi shi);
    Ok ()
  in
  let packed_f32 f =
    let* s = read_xmm128 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let dv = Machine.get_xmm m d in
    Machine.set_xmm m d (map_lanes4_f32 (fun dx sx -> f dx sx) dv s);
    Ok ()
  in
  let packed_f64 f =
    let* s = read_xmm128 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let dv = Machine.get_xmm m d in
    Machine.set_xmm m d (map_lanes2_f64 (fun dx sx -> f dx sx) dv s);
    Ok ()
  in
  let avx3_f64 f =
    (* AT&T: op src2, src1, dst — dst low = f src1 src2, upper copied from
       src1. *)
    let* x2 = read_f64 m (src 0) in
    let* x1 = read_f64 m (src 1) in
    let* d = dst_xmm (dst ()) in
    let* s1 = dst_xmm (src 1) in
    let _, hi1 = Machine.get_xmm m s1 in
    Machine.set_xmm m d (Int64.bits_of_float (f x1 x2), hi1);
    Ok ()
  in
  let avx3_f32 f =
    let* x2 = read_f32 m (src 0) in
    let* x1 = read_f32 m (src 1) in
    let* d = dst_xmm (dst ()) in
    let* s1 = dst_xmm (src 1) in
    let lo1, hi1 = Machine.get_xmm m s1 in
    let res = dword_of (Fp32.round (f x1 x2)) in
    Machine.set_xmm m d
      (Int64.logor (Int64.logand lo1 0xffff_ffff_0000_0000L) res, hi1);
    Ok ()
  in
  let avx3_packed128 f =
    let* s2 = read_xmm128 m (src 0) in
    let* s1 = read_xmm128 m (src 1) in
    let* d = dst_xmm (dst ()) in
    Machine.set_xmm m d (f s1 s2);
    Ok ()
  in
  (* FMA: value roles per the 132/213/231 digit conventions.  AT&T order:
     op src3(ops0), src2(ops1), dst(ops2); Intel dst = xmm1, src2 = xmm2,
     src3 = xmm3/m.  The host fma is correctly rounded. *)
  let fma_sd () =
    let* x3 = read_f64 m (src 0) in
    let* s2 = dst_xmm (src 1) in
    let* d = dst_xmm (dst ()) in
    Machine.set_f64 m d (fma i.Instr.op (Machine.get_f64 m d) (Machine.get_f64 m s2) x3);
    Ok ()
  in
  let fma_ss () =
    let* x3 = read_f32 m (src 0) in
    let* s2 = dst_xmm (src 1) in
    let* d = dst_xmm (dst ()) in
    Machine.set_f32 m d
      (Fp32.round (fma i.Instr.op (Machine.get_f32 m d) (Machine.get_f32 m s2) x3));
    Ok ()
  in
  match i.Instr.op with
  (* ----- GP ----- *)
  | Opcode.Mov w ->
    let* v = read_int m w (src 0) in
    write_int m w (dst ()) v
  | Opcode.Movabs ->
    let* v = imm_val (src 0) in
    write_int m Reg.Q (dst ()) v
  | Opcode.Lea w ->
    (match src 0 with
     | Operand.Mem mem -> write_int m w (dst ()) (eff_addr m mem)
     | _ -> Error (Sigill "lea needs a memory source"))
  | Opcode.Add w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    let r = Int64.add a b in
    set_add_flags m w a b r;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Sub w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    let r = Int64.sub a b in
    set_sub_flags m w a b r;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Imul w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    let r = Int64.mul (signed w a) (signed w b) in
    set_logic_flags m w r;
    write_int m w (dst ()) (trunc w r)
  | Opcode.And w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    let r = Int64.logand a b in
    set_logic_flags m w r;
    write_int m w (dst ()) r
  | Opcode.Or w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    let r = Int64.logor a b in
    set_logic_flags m w r;
    write_int m w (dst ()) r
  | Opcode.Xor w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    let r = Int64.logxor a b in
    set_logic_flags m w r;
    write_int m w (dst ()) r
  | Opcode.Not w ->
    let* a = read_int m w (dst ()) in
    write_int m w (dst ()) (trunc w (Int64.lognot a))
  | Opcode.Neg w ->
    let* a = read_int m w (dst ()) in
    let r = Int64.neg (signed w a) in
    set_sub_flags m w 0L a r;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Inc w ->
    let* a = read_int m w (dst ()) in
    let r = Int64.add a 1L in
    let saved_cf = m.Machine.flags.cf in
    set_add_flags m w a 1L r;
    m.Machine.flags.cf <- saved_cf;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Dec w ->
    let* a = read_int m w (dst ()) in
    let r = Int64.sub a 1L in
    let saved_cf = m.Machine.flags.cf in
    set_sub_flags m w a 1L r;
    m.Machine.flags.cf <- saved_cf;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Shl w ->
    let* c = imm_val (src 0) in
    let* a = read_int m w (dst ()) in
    let bits = (match w with Reg.Q -> 64 | Reg.L -> 32) in
    let c = Int64.to_int c land (if bits = 64 then 63 else 31) in
    let r = if c = 0 then a else Int64.shift_left a c in
    if c <> 0 then set_logic_flags m w r;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Shr w ->
    let* c = imm_val (src 0) in
    let* a = read_int m w (dst ()) in
    let bits = (match w with Reg.Q -> 64 | Reg.L -> 32) in
    let c = Int64.to_int c land (if bits = 64 then 63 else 31) in
    let r = if c = 0 then a else Int64.shift_right_logical (trunc w a) c in
    if c <> 0 then set_logic_flags m w r;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Sar w ->
    let* c = imm_val (src 0) in
    let* a = read_int m w (dst ()) in
    let bits = (match w with Reg.Q -> 64 | Reg.L -> 32) in
    let c = Int64.to_int c land (if bits = 64 then 63 else 31) in
    let r = if c = 0 then a else Int64.shift_right (signed w a) c in
    if c <> 0 then set_logic_flags m w r;
    write_int m w (dst ()) (trunc w r)
  | Opcode.Cmp w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    set_sub_flags m w a b (Int64.sub a b);
    Ok ()
  | Opcode.Test w ->
    let* a = read_int m w (dst ()) in
    let* b = read_int m w (src 0) in
    set_logic_flags m w (Int64.logand a b);
    Ok ()
  | Opcode.Cmov (c, w) ->
    if cond_holds m c then begin
      let* v = read_int m w (src 0) in
      write_int m w (dst ()) v
    end
    else Ok ()
  | Opcode.Setcc c ->
    (match dst () with
     | Operand.Gp r ->
       let old = Machine.get_gp m r in
       let bit = if cond_holds m c then 1L else 0L in
       Machine.set_gp m r (Int64.logor (Int64.logand old (-256L)) bit);
       Ok ()
     | _ -> Error (Sigill "setcc needs a register"))
  (* ----- SSE moves ----- *)
  | Opcode.Movss ->
    (match src 0, dst () with
     | Operand.Xmm s, Operand.Xmm d ->
       (* reg-to-reg: merge the low dword *)
       let lo_s = Int64.logand (Machine.get_xmm_lo m s) 0xffff_ffffL in
       let lo_d = Machine.get_xmm_lo m d in
       Machine.set_xmm_lo m d
         (Int64.logor (Int64.logand lo_d 0xffff_ffff_0000_0000L) lo_s);
       Ok ()
     | Operand.Mem mem, Operand.Xmm d ->
       let* v = lift (Memory.read m.Machine.mem (eff_addr m mem) 4) in
       Machine.set_xmm m d (v, 0L);
       Ok ()
     | Operand.Xmm s, Operand.Mem mem ->
       lift
         (Memory.write m.Machine.mem (eff_addr m mem) 4
            (Int64.logand (Machine.get_xmm_lo m s) 0xffff_ffffL))
     | _ -> Error (Sigill "movss operands"))
  | Opcode.Movsd ->
    (match src 0, dst () with
     | Operand.Xmm s, Operand.Xmm d ->
       Machine.set_xmm_lo m d (Machine.get_xmm_lo m s);
       Ok ()
     | Operand.Mem mem, Operand.Xmm d ->
       let* v = lift (Memory.read m.Machine.mem (eff_addr m mem) 8) in
       Machine.set_xmm m d (v, 0L);
       Ok ()
     | Operand.Xmm s, Operand.Mem mem ->
       lift (Memory.write m.Machine.mem (eff_addr m mem) 8 (Machine.get_xmm_lo m s))
     | _ -> Error (Sigill "movsd operands"))
  | Opcode.Movaps | Opcode.Movups | Opcode.Lddqu ->
    let aligned =
      match i.Instr.op with
      | Opcode.Movaps -> true
      | _ -> false
    in
    (match src 0, dst () with
     | (Operand.Xmm _ | Operand.Mem _), Operand.Xmm d ->
       let* v = read_xmm128 m ~aligned (src 0) in
       Machine.set_xmm m d v;
       Ok ()
     | Operand.Xmm s, Operand.Mem mem ->
       lift
         (Memory.write128 ~aligned m.Machine.mem (eff_addr m mem)
            (Machine.get_xmm m s))
     | _ -> Error (Sigill "128-bit move operands"))
  | Opcode.Movq ->
    (match src 0, dst () with
     | (Operand.Xmm _ | Operand.Mem _ | Operand.Gp _), Operand.Xmm d ->
       let* v = read_q m (src 0) in
       Machine.set_xmm m d (v, 0L);
       Ok ()
     | Operand.Xmm s, Operand.Gp d ->
       Machine.set_gp m d (Machine.get_xmm_lo m s);
       Ok ()
     | Operand.Xmm s, Operand.Mem mem ->
       lift (Memory.write m.Machine.mem (eff_addr m mem) 8 (Machine.get_xmm_lo m s))
     | _ -> Error (Sigill "movq operands"))
  | Opcode.Movd ->
    (match src 0, dst () with
     | Operand.Gp s, Operand.Xmm d ->
       Machine.set_xmm m d (Machine.get_gp32 m s, 0L);
       Ok ()
     | Operand.Xmm s, Operand.Gp d ->
       Machine.set_gp32 m d (Machine.get_xmm_lo m s);
       Ok ()
     | _ -> Error (Sigill "movd operands"))
  | Opcode.Movlhps ->
    let* s = dst_xmm (src 0) in
    let* d = dst_xmm (dst ()) in
    let slo, _ = Machine.get_xmm m s in
    let dlo, _ = Machine.get_xmm m d in
    Machine.set_xmm m d (dlo, slo);
    Ok ()
  | Opcode.Movhlps ->
    let* s = dst_xmm (src 0) in
    let* d = dst_xmm (dst ()) in
    let _, shi = Machine.get_xmm m s in
    let _, dhi = Machine.get_xmm m d in
    Machine.set_xmm m d (shi, dhi);
    Ok ()
  (* ----- scalar FP ----- *)
  | Opcode.Addsd -> scalar_f64 (fun ~dst_old ~src -> dst_old +. src)
  | Opcode.Subsd -> scalar_f64 (fun ~dst_old ~src -> dst_old -. src)
  | Opcode.Mulsd -> scalar_f64 (fun ~dst_old ~src -> dst_old *. src)
  | Opcode.Divsd -> scalar_f64 (fun ~dst_old ~src -> dst_old /. src)
  | Opcode.Sqrtsd -> scalar_f64 (fun ~dst_old:_ ~src -> Float.sqrt src)
  | Opcode.Minsd -> scalar_f64 (fun ~dst_old ~src -> sse_min_f64 ~dst_old ~src)
  | Opcode.Maxsd -> scalar_f64 (fun ~dst_old ~src -> sse_max_f64 ~dst_old ~src)
  | Opcode.Addss -> scalar_f32 (fun ~dst_old ~src -> Fp32.add dst_old src)
  | Opcode.Subss -> scalar_f32 (fun ~dst_old ~src -> Fp32.sub dst_old src)
  | Opcode.Mulss -> scalar_f32 (fun ~dst_old ~src -> Fp32.mul dst_old src)
  | Opcode.Divss -> scalar_f32 (fun ~dst_old ~src -> Fp32.div dst_old src)
  | Opcode.Sqrtss -> scalar_f32 (fun ~dst_old:_ ~src -> Fp32.sqrt src)
  | Opcode.Minss -> scalar_f32 (fun ~dst_old ~src -> Fp32.min dst_old src)
  | Opcode.Maxss -> scalar_f32 (fun ~dst_old ~src -> Fp32.max dst_old src)
  | Opcode.Ucomisd | Opcode.Comisd ->
    let* s = read_f64 m (src 0) in
    let* d = dst_xmm (dst ()) in
    set_fp_compare_flags m (Machine.get_f64 m d) s;
    Ok ()
  | Opcode.Ucomiss | Opcode.Comiss ->
    let* s = read_f32 m (src 0) in
    let* d = dst_xmm (dst ()) in
    set_fp_compare_flags m (Machine.get_f32 m d) s;
    Ok ()
  (* ----- packed logic / integer ----- *)
  | Opcode.Andps | Opcode.Andpd | Opcode.Pand -> packed_bitop Int64.logand
  | Opcode.Orps | Opcode.Orpd | Opcode.Por -> packed_bitop Int64.logor
  | Opcode.Xorps | Opcode.Xorpd | Opcode.Pxor -> packed_bitop Int64.logxor
  | Opcode.Andnps -> packed_bitop (fun d s -> Int64.logand (Int64.lognot d) s)
  | Opcode.Paddq -> packed_bitop (fun d s -> Int64.add d s)
  | Opcode.Psubq -> packed_bitop (fun d s -> Int64.sub d s)
  | Opcode.Paddd ->
    let* s = read_xmm128 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let ld = lanes4 (Machine.get_xmm m d) and ls = lanes4 s in
    Machine.set_xmm m d
      (join4 (Array.init 4 (fun k -> Int64.logand (Int64.add ld.(k) ls.(k)) 0xffff_ffffL)));
    Ok ()
  | Opcode.Psubd ->
    let* s = read_xmm128 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let ld = lanes4 (Machine.get_xmm m d) and ls = lanes4 s in
    Machine.set_xmm m d
      (join4 (Array.init 4 (fun k -> Int64.logand (Int64.sub ld.(k) ls.(k)) 0xffff_ffffL)));
    Ok ()
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
  (* ----- shuffles ----- *)
  | Opcode.Shufps ->
    let* sel = imm_val (src 0) in
    let* s = dst_xmm (src 1) in
    let* d = dst_xmm (dst ()) in
    let sel = Int64.to_int sel in
    let ld = lanes4 (Machine.get_xmm m d) in
    let ls = lanes4 (Machine.get_xmm m s) in
    let pick l k = l.((sel lsr (2 * k)) land 3) in
    Machine.set_xmm m d (join4 [| pick ld 0; pick ld 1; pick ls 2; pick ls 3 |]);
    Ok ()
  | Opcode.Pshufd ->
    let* sel = imm_val (src 0) in
    let* s = dst_xmm (src 1) in
    let* d = dst_xmm (dst ()) in
    let sel = Int64.to_int sel in
    let ls = lanes4 (Machine.get_xmm m s) in
    Machine.set_xmm m d
      (join4 (Array.init 4 (fun k -> ls.((sel lsr (2 * k)) land 3))));
    Ok ()
  | Opcode.Pshuflw ->
    let* sel = imm_val (src 0) in
    let* s = dst_xmm (src 1) in
    let* d = dst_xmm (dst ()) in
    let sel = Int64.to_int sel in
    let slo, shi = Machine.get_xmm m s in
    let word k = Int64.logand (Int64.shift_right_logical slo (16 * k)) 0xffffL in
    let out = ref 0L in
    for k = 3 downto 0 do
      out := Int64.logor (Int64.shift_left !out 16) (word ((sel lsr (2 * k)) land 3))
    done;
    Machine.set_xmm m d (!out, shi);
    Ok ()
  | Opcode.Punpckldq | Opcode.Unpcklps ->
    let* s = read_xmm128 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let ld = lanes4 (Machine.get_xmm m d) and ls = lanes4 s in
    Machine.set_xmm m d (join4 [| ld.(0); ls.(0); ld.(1); ls.(1) |]);
    Ok ()
  | Opcode.Punpcklqdq | Opcode.Unpcklpd ->
    let* s = read_xmm128 m (src 0) in
    let* d = dst_xmm (dst ()) in
    let dlo, _ = Machine.get_xmm m d in
    let slo, _ = s in
    Machine.set_xmm m d (dlo, slo);
    Ok ()
  | Opcode.Pslld | Opcode.Psrld ->
    let* c = imm_val (src 0) in
    let* d = dst_xmm (dst ()) in
    let c = Int64.to_int c in
    let l = lanes4 (Machine.get_xmm m d) in
    let shift v =
      if c >= 32 then 0L
      else if i.Instr.op = Opcode.Pslld then
        Int64.logand (Int64.shift_left v c) 0xffff_ffffL
      else Int64.shift_right_logical (Int64.logand v 0xffff_ffffL) c
    in
    Machine.set_xmm m d (join4 (Array.map shift l));
    Ok ()
  | Opcode.Psllq | Opcode.Psrlq ->
    let* c = imm_val (src 0) in
    let* d = dst_xmm (dst ()) in
    let c = Int64.to_int c in
    let lo, hi = Machine.get_xmm m d in
    let shift v =
      if c >= 64 then 0L
      else if i.Instr.op = Opcode.Psllq then Int64.shift_left v c
      else Int64.shift_right_logical v c
    in
    Machine.set_xmm m d (shift lo, shift hi);
    Ok ()
  (* ----- converts ----- *)
  | Opcode.Cvtss2sd ->
    let* x = read_f32 m (src 0) in
    let* d = dst_xmm (dst ()) in
    Machine.set_f64 m d x;
    Ok ()
  | Opcode.Cvtsd2ss ->
    let* x = read_f64 m (src 0) in
    let* d = dst_xmm (dst ()) in
    Machine.set_f32 m d (Fp32.round x);
    Ok ()
  | Opcode.Cvtsi2sd w ->
    let* v = read_int m w (src 0) in
    let* d = dst_xmm (dst ()) in
    Machine.set_f64 m d (Int64.to_float (signed w v));
    Ok ()
  | Opcode.Cvtsi2ss w ->
    let* v = read_int m w (src 0) in
    let* d = dst_xmm (dst ()) in
    Machine.set_f32 m d (Fp32.round (Int64.to_float (signed w v)));
    Ok ()
  | Opcode.Cvttsd2si w ->
    let* x = read_f64 m (src 0) in
    let x = Float.trunc x in
    write_int m w (dst ()) (match w with Reg.Q -> f2i64 x | Reg.L -> f2i32 x)
  | Opcode.Cvttss2si w ->
    let* x = read_f32 m (src 0) in
    let x = Float.trunc x in
    write_int m w (dst ()) (match w with Reg.Q -> f2i64 x | Reg.L -> f2i32 x)
  | Opcode.Cvtsd2si w ->
    let* x = read_f64 m (src 0) in
    let x = rint_even x in
    write_int m w (dst ()) (match w with Reg.Q -> f2i64 x | Reg.L -> f2i32 x)
  | Opcode.Roundsd ->
    let* mode = imm_val (src 0) in
    let* x = read_f64 m (src 1) in
    let* d = dst_xmm (dst ()) in
    let r = rounding mode x in
    Machine.set_f64 m d r;
    Ok ()
  | Opcode.Roundss ->
    let* mode = imm_val (src 0) in
    let* x = read_f32 m (src 1) in
    let* d = dst_xmm (dst ()) in
    let r = rounding mode x in
    Machine.set_f32 m d (Fp32.round r);
    Ok ()
  (* ----- AVX three-operand ----- *)
  | Opcode.Vaddsd -> avx3_f64 ( +. )
  | Opcode.Vsubsd -> avx3_f64 ( -. )
  | Opcode.Vmulsd -> avx3_f64 ( *. )
  | Opcode.Vdivsd -> avx3_f64 ( /. )
  | Opcode.Vminsd -> avx3_f64 (fun a b -> sse_min_f64 ~dst_old:a ~src:b)
  | Opcode.Vmaxsd -> avx3_f64 (fun a b -> sse_max_f64 ~dst_old:a ~src:b)
  | Opcode.Vsqrtsd -> avx3_f64 (fun _ b -> Float.sqrt b)
  | Opcode.Vaddss -> avx3_f32 Fp32.add
  | Opcode.Vsubss -> avx3_f32 Fp32.sub
  | Opcode.Vmulss -> avx3_f32 Fp32.mul
  | Opcode.Vdivss -> avx3_f32 Fp32.div
  | Opcode.Vminss -> avx3_f32 Fp32.min
  | Opcode.Vmaxss -> avx3_f32 Fp32.max
  | Opcode.Vaddps -> avx3_packed128 (fun a b -> map_lanes4_f32 Fp32.add a b)
  | Opcode.Vsubps -> avx3_packed128 (fun a b -> map_lanes4_f32 Fp32.sub a b)
  | Opcode.Vmulps -> avx3_packed128 (fun a b -> map_lanes4_f32 Fp32.mul a b)
  | Opcode.Vaddpd -> avx3_packed128 (fun a b -> map_lanes2_f64 ( +. ) a b)
  | Opcode.Vmulpd -> avx3_packed128 (fun a b -> map_lanes2_f64 ( *. ) a b)
  | Opcode.Vxorps ->
    avx3_packed128 (fun (alo, ahi) (blo, bhi) ->
        (Int64.logxor alo blo, Int64.logxor ahi bhi))
  | Opcode.Vandps ->
    avx3_packed128 (fun (alo, ahi) (blo, bhi) ->
        (Int64.logand alo blo, Int64.logand ahi bhi))
  | Opcode.Vunpcklps ->
    avx3_packed128 (fun a b ->
        let la = lanes4 a and lb = lanes4 b in
        join4 [| la.(0); lb.(0); la.(1); lb.(1) |])
  | Opcode.Vpshuflw ->
    let* sel = imm_val (src 0) in
    let* s = read_xmm128 m (src 1) in
    let* d = dst_xmm (dst ()) in
    let sel = Int64.to_int sel in
    let slo, shi = s in
    let word k = Int64.logand (Int64.shift_right_logical slo (16 * k)) 0xffffL in
    let out = ref 0L in
    for k = 3 downto 0 do
      out := Int64.logor (Int64.shift_left !out 16) (word ((sel lsr (2 * k)) land 3))
    done;
    Machine.set_xmm m d (!out, shi);
    Ok ()
  (* dst = a*b + c with the digit convention: operand1=dst, operand2=vvvv,
     operand3=rm (Intel order); [fma] receives (x1=dst, x2=vvvv, x3=rm). *)
  | Opcode.Vfmadd132sd | Opcode.Vfmadd213sd | Opcode.Vfmadd231sd
  | Opcode.Vfnmadd213sd | Opcode.Vfnmadd231sd | Opcode.Vfmsub213sd ->
    fma_sd ()
  | Opcode.Vfmadd132ss | Opcode.Vfmadd213ss | Opcode.Vfmadd231ss -> fma_ss ()

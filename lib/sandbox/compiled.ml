(* Compiled execution engine: translate a program once into an array of
   pre-specialized closures over one machine, then run that trace across
   many test cases.

   Specialization happens at compile time, once per changed slot (see
   [memo] below): operands are resolved to byte offsets into the
   machine's unboxed register file, immediates are pre-extended,
   effective-address code is picked per addressing mode, only active
   slots get a step, and faults are raised through a local exception
   instead of threading a [result] through every step.  The run loop is
   then just an array of [unit -> unit] calls.

   Flat closures.  Every operand shape of the built-in kernels, with the
   other register, immediate and [base+disp] forms of the same opcodes —
   scalar f64/f32 arithmetic on xmm or [base+disp] sources, the
   xmm/gp/memory moves, [mov]/[movabs] of an immediate, the int<->double
   converts, GP add/sub/logic/shift on an immediate or register, and on
   xmm registers packed add/sub/mul, AVX scalar f32 add/sub/mul,
   [punpckldq]/[unpcklps] and [vpshuflw] —
   translates to one closure whose load, operation, flag update and store
   are a single expression over the register file.  OCaml keeps
   [int64] and [float] unboxed inside one expression but boxes them at
   every call it cannot inline, and without flambda it inlines neither a
   closure call nor, when the library is built with [-opaque] (dune's dev
   profile), any call into another module of this library.  So the flat
   closures use only stdlib externals and the [@inline] value helpers
   below, each of which names the {!Semantics} (or {!Memory}) function it
   mirrors: flags, parity, conversions, rounding, the bounds check.  A
   run of flat closures allocates nothing per instruction.

   Bit-identical by construction: every closure mirrors the corresponding
   arm of {!Semantics.step} — same read order, same fault order, same
   fault messages.  Rare shapes keep the generic operand combinators,
   which share value-level arithmetic with the interpreter through
   {!Semantics}'s exported helpers, and opcodes without a specialized
   translation fall back to a closure around [Semantics.step] itself, so
   the two engines cannot diverge on them. *)

open X86

exception Fault of Semantics.fault

(* Dense: one step per active slot, in program order; only the first
   [count] entries of the arrays are the program's.  Under a table (see
   [prepare] below) the arrays are the table's own. *)
type t = {
  mutable steps : (unit -> unit) array;
  mutable lats : int array;  (* the steps' latencies *)
  mutable count : int;
  mutable cycles : int;  (* the latency of every step *)
  mutable ran : int;  (* steps the last run started, a faulting one included *)
}

(* Operand byte offsets into [Machine.regs], read and written in place
   with no write barrier. *)
let xi = Machine.xmm_offset
let gi = Machine.gp_offset
let[@inline] get regs o = Bytes.get_int64_le regs o
let[@inline] set regs o v = Bytes.set_int64_le regs o v

let lo32 = 0xffff_ffffL
let hi32_mask = 0xffff_ffff_0000_0000L
let nop () = ()

(* ----- value helpers of the flat closures ----- *)

(* A register's low quad as a double, and back (Machine.get_f64/set_f64). *)
let[@inline] getf regs o = Int64.float_of_bits (get regs o)
let[@inline] setf regs o x = set regs o (Int64.bits_of_float x)

(* A register's low dword as a single (Machine.get_f32), and a double
   stored there rounded to single, the upper dword kept
   (Machine.set_f32 of Fp32.round: the conversion rounds). *)
let[@inline] getf32 regs o = Int32.float_of_bits (Bytes.get_int32_le regs o)
let[@inline] setf32 regs o x = Bytes.set_int32_le regs o (Int32.bits_of_float x)

(* A GP register read at L width, zero- and sign-extended
   (Machine.get_gp32, Semantics.signed L). *)
let[@inline] get32 regs o = Int64.logand (get regs o) lo32
let[@inline] sext32 regs o = Int64.of_int32 (Bytes.get_int32_le regs o)
let[@inline] zext32 x = Int64.logand (Int64.of_int32 x) lo32

(* Unsigned [a < b] and [a <= b] (Int64.unsigned_compare). *)
let[@inline] ult a b = Int64.sub a Int64.min_int < Int64.sub b Int64.min_int
let[@inline] ule a b = Int64.sub a Int64.min_int <= Int64.sub b Int64.min_int

(* Semantics.parity: PF is set when the low byte has an even popcount. *)
let[@inline] parity v =
  let b = Int64.to_int v land 0xff in
  let b = b lxor (b lsr 4) in
  let b = b lxor (b lsr 2) in
  (b lxor (b lsr 1)) land 1 = 0

(* An AVX scalar f32 result: the single [r] under [s1]'s upper 96 bits,
   into [d] (Semantics' avx3_f32 with the rounding done by [r]). *)
let[@inline] avx3_ss regs d s1 r =
  let hi = get regs (s1 + 8) in
  set regs d (Int64.logor (Int64.logand (get regs s1) hi32_mask) (zext32 r));
  set regs (d + 8) hi

(* An AVX scalar f64 result: [r] under [s1]'s high quad, into [d]
   (Semantics' avx3_f64). *)
let[@inline] avx3_sd regs d s1 r =
  let hi = get regs (s1 + 8) in
  setf regs d r;
  set regs (d + 8) hi

(* The 16-bit word of [v] at bit [sh] (Semantics' pshuflw [word]). *)
let[@inline] word16 v sh = Int64.logand (Int64.shift_right_logical v sh) 0xffffL

let[@inline] msb32 v = not (Int64.equal (Int64.logand v 0x8000_0000L) 0L)

(* Semantics.set_add_flags / set_sub_flags / set_logic_flags at Q and at L
   width, for operands already read at that width (zero-extended). *)
let[@inline] add_flags_q (f : Machine.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- r < 0L;
  f.pf <- parity r;
  f.cf <- ult r a || ult r b;
  let sa = a < 0L and sb = b < 0L and sr = r < 0L in
  f.o_f <- sa = sb && sr <> sa

let[@inline] add_flags_l (f : Machine.flags) a b r =
  let r = Int64.logand r lo32 in
  f.zf <- Int64.equal r 0L;
  f.sf <- msb32 r;
  f.pf <- parity r;
  f.cf <- ult r a;
  let sa = msb32 a and sb = msb32 b and sr = msb32 r in
  f.o_f <- sa = sb && sr <> sa

let[@inline] sub_flags_q (f : Machine.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- r < 0L;
  f.pf <- parity r;
  f.cf <- ult a b;
  let sa = a < 0L and sb = b < 0L and sr = r < 0L in
  f.o_f <- sa <> sb && sr <> sa

let[@inline] sub_flags_l (f : Machine.flags) a b r =
  let r = Int64.logand r lo32 in
  f.zf <- Int64.equal r 0L;
  f.sf <- msb32 r;
  f.pf <- parity r;
  f.cf <- ult a b;
  let sa = msb32 a and sb = msb32 b and sr = msb32 r in
  f.o_f <- sa <> sb && sr <> sa

let[@inline] logic_flags_q (f : Machine.flags) r =
  f.cf <- false;
  f.o_f <- false;
  f.zf <- Int64.equal r 0L;
  f.sf <- r < 0L;
  f.pf <- parity r

let[@inline] logic_flags_l (f : Machine.flags) r =
  f.cf <- false;
  f.o_f <- false;
  f.zf <- Int64.equal (Int64.logand r lo32) 0L;
  f.sf <- msb32 r;
  f.pf <- parity r

(* A GP instruction's flags and write-back in one: the interpreter's
   [set_*_flags] then [write_int w dst (trunc w r)]. *)
let[@inline] add_q f regs d a b =
  let r = Int64.add a b in
  add_flags_q f a b r;
  set regs d r

let[@inline] add_l f regs d a b =
  let r = Int64.add a b in
  add_flags_l f a b r;
  set regs d (Int64.logand r lo32)

let[@inline] sub_q f regs d a b =
  let r = Int64.sub a b in
  sub_flags_q f a b r;
  set regs d r

let[@inline] sub_l f regs d a b =
  let r = Int64.sub a b in
  sub_flags_l f a b r;
  set regs d (Int64.logand r lo32)

let[@inline] logic_q f regs d r =
  logic_flags_q f r;
  set regs d r

let[@inline] logic_l f regs d r =
  logic_flags_l f r;
  set regs d (Int64.logand r lo32)

(* Semantics.set_fp_compare_flags: unordered sets ZF, PF and CF. *)
let[@inline] fp_compare (f : Machine.flags) (a : float) b =
  f.o_f <- false;
  f.sf <- false;
  if Float.is_nan a || Float.is_nan b then begin
    f.zf <- true;
    f.pf <- true;
    f.cf <- true
  end
  else if a < b then begin
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

(* Semantics.sse_min_f64 / sse_max_f64 (and Fp32.min / max): unordered or
   equal operands give the source. *)
let[@inline] fmin (old : float) x = if old < x then old else x
let[@inline] fmax (old : float) x = if old > x then old else x

(* Semantics.rint_even: round to nearest, ties to even.  Float.is_integer
   is spelled out: the stdlib call is not inlined and boxes [x]. *)
let[@inline] rint_even x =
  if Float.is_nan x || (x = Float.trunc x && x -. x = 0.) then x
  else begin
    let lo = Float.floor x in
    let hi = Float.ceil x in
    let dlo = x -. lo and dhi = hi -. x in
    if dlo < dhi then lo
    else if dhi < dlo then hi
    else if Float.rem lo 2. = 0. then lo
    else hi
  end

(* Semantics.f2i64 / f2i32: the x86 "integer indefinite" on overflow or
   NaN; f2i32 is zero-extended. *)
let[@inline] f2i64 x =
  if Float.is_nan x || x >= 0x1p63 || x < -0x1p63 then Int64.min_int
  else Int64.of_float x

let[@inline] f2i32 x =
  if Float.is_nan x || x >= 0x1p31 || x < -.0x1p31 then 0x8000_0000L
  else Int64.logand (Int64.of_int32 (Int32.of_float x)) lo32

(* ----- the arena, as the flat closures see it ----- *)

(* A machine's memory never changes its bytes buffer, base or size, so
   they are captured once at translation time. *)
type arena = { data : Bytes.t; base : int64; size : int; mem : Memory.t }

let arena mem =
  { data = Memory.unsafe_bytes mem; base = Memory.base mem; size = Memory.size mem; mem }

(* Memory.offset_exn: the arena offset of an [n]-byte access at [addr], or
   the same [Out_of_bounds] fault. *)
let[@inline] offset a n addr =
  let off = Int64.sub addr a.base in
  let lim = a.size - n in
  if lim >= 0 && ule off (Int64.of_int lim) then Int64.to_int off
  else raise (Memory.Fault_exn (Memory.Out_of_bounds addr))

(* Memory.read_exn / write_exn at widths 8 and 4 (the dword raw, not
   zero-extended); a store widens the arena's dirty range like
   Memory.store does. *)
let[@inline] load64 a addr = Bytes.get_int64_le a.data (offset a 8 addr)

let[@inline] load32 a addr = Bytes.get_int32_le a.data (offset a 4 addr)

let[@inline] store64 a addr v =
  let off = offset a 8 addr in
  Bytes.set_int64_le a.data off v;
  Memory.mark a.mem off 8

let[@inline] store32 a addr v =
  let off = offset a 4 addr in
  Bytes.set_int32_le a.data off v;
  Memory.mark a.mem off 4

let[@inline] loadf64 a addr = Int64.float_of_bits (load64 a addr)
let[@inline] loadf32 a addr = Int32.float_of_bits (load32 a addr)

(* Memory.read128_exn / write128_exn's alignment check. *)
let[@inline] check_aligned aligned addr =
  if aligned && not (Int64.equal (Int64.rem addr 16L) 0L) then
    raise (Memory.Fault_exn (Memory.Misaligned addr))

let[@inline] ea regs b disp = Int64.add (get regs b) disp

(* Memory.read128_exn's two 8-byte bounds checks, in its order, for an
   unaligned 16-byte load at [addr]: the arena offset of its first
   byte.  The lanes are then read at that offset. *)
let[@inline] offset128 a addr =
  let off = offset a 8 addr in
  ignore (offset a 8 (Int64.add addr 8L) : int);
  off

(* The single in the arena's dword at [off] (Memory's dword read, as a
   binary32 value widened to double). *)
let[@inline] mgetf32 a off = Int32.float_of_bits (Bytes.get_int32_le a.data off)

(* An operand resolved at translation time, for the flat shapes' patterns. *)
type loc =
  | X of int  (** xmm register: byte offset *)
  | G of int  (** GP register: byte offset *)
  | I of int64  (** immediate *)
  | M of int * int64  (** [base + disp]: the base register's offset, disp *)
  | Other  (** any other addressing mode *)

let loc (o : Operand.t) =
  match o with
  | Operand.Xmm r -> X (xi r)
  | Operand.Gp r -> G (gi r)
  | Operand.Imm v -> I v
  | Operand.Mem { Operand.base = Some b; index = None; disp } -> M (gi b, Int64.of_int disp)
  | Operand.Mem _ -> Other

(* A fault known at compile time still fires in operand order at run
   time, so raising closures are built per slot below. *)

let generic_closure (m : Machine.t) (i : Instr.t) : unit -> unit =
 fun () ->
  match Semantics.step m i with
  | Ok () -> ()
  | Error f -> raise (Fault f)

(* The generic operand combinators: every shape without a flat closure.
   They share value-level arithmetic with the interpreter through
   {!Semantics}'s exported helpers. *)
let specialize_generic (m : Machine.t) (i : Instr.t) : unit -> unit =
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
        setf32 regs k (f (getf32 regs k) x)
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
  let fma_sd () =
    let rx3 = read_f64 ops.(0) in
    let fma = Semantics.fma i.Instr.op in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s2 ->
      let dk = xi d and s2k = xi s2 in
      fun () ->
        let x3 = rx3 () in
        let x2 = Int64.float_of_bits (get regs s2k) in
        let x1 = Int64.float_of_bits (get regs dk) in
        set regs dk (Int64.bits_of_float (fma x1 x2 x3))
    | _ -> bad_dst_after [ (fun () -> ignore (rx3 ())) ] "expected xmm destination"
  in
  let fma_ss () =
    let rx3 = read_f32 ops.(0) in
    let fma = Semantics.fma i.Instr.op in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s2 ->
      let dk = xi d and s2k = xi s2 in
      fun () ->
        let x3 = rx3 () in
        let x2 = getf32 regs s2k in
        let x1 = getf32 regs dk in
        setf32 regs dk (Fp32.round (fma x1 x2 x3))
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
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sk = xi s in
       fun () -> Memory.write_exn mem (ea ()) 8 (get regs sk)
     | _ -> fun () -> raise (Fault (Semantics.Sigill "movq operands")))
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
         Semantics.set_fp_compare_flags m (getf32 regs dk) s
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
       fun () -> setf32 regs dk (Fp32.round (rx ()))
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
         setf32 regs dk (Fp32.round (Int64.to_float (Semantics.signed w (rv ()))))
     | _ -> bad_dst_after [ (fun () -> ignore (rv ())) ] "expected xmm destination")
  | Opcode.Cvttss2si w ->
    let rx = read_f32 ops.(0) and wr = write_int w dst in
    let conv = match w with Reg.Q -> Semantics.f2i64 | Reg.L -> Semantics.f2i32 in
    fun () -> wr (conv (Float.trunc (rx ())))
  | Opcode.Roundsd ->
    (match ops.(0) with
     | Operand.Imm mode ->
       let rx = read_f64 ops.(1) in
       let round = Semantics.rounding mode in
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
       let round = Semantics.rounding mode in
       (match dst with
        | Operand.Xmm d ->
          let dk = xi d in
          fun () -> setf32 regs dk (Fp32.round (round (rx ())))
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
  | Opcode.Vfmadd132sd | Opcode.Vfmadd213sd | Opcode.Vfmadd231sd
  | Opcode.Vfnmadd213sd | Opcode.Vfnmadd231sd | Opcode.Vfmsub213sd ->
    fma_sd ()
  | Opcode.Vfmadd132ss | Opcode.Vfmadd213ss | Opcode.Vfmadd231ss -> fma_ss ()
  (* Shuffles, packed 32-bit integer ops, and vector shifts are rare in
     FP kernels; apart from the register forms [specialize] flattens,
     they run through the reference interpreter, which keeps them
     bit-identical by construction.  So do the ill-formed instances of
     the opcodes whose every well-formed shape is a flat closure. *)
  | Opcode.Shl _ | Opcode.Shr _ | Opcode.Sar _ | Opcode.Movd | Opcode.Cvttsd2si _
  | Opcode.Cvtsd2si _ | Opcode.Shufps | Opcode.Pshufd | Opcode.Pshuflw
  | Opcode.Punpckldq | Opcode.Punpcklqdq | Opcode.Unpcklps | Opcode.Unpcklpd | Opcode.Paddd
  | Opcode.Psubd | Opcode.Pslld | Opcode.Psrld | Opcode.Psllq | Opcode.Psrlq
  | Opcode.Vpshuflw ->
    fallback ()

(* The flat closures, one per arm; any other shape falls through to the
   generic combinators, so a flat translation allocates none of their
   closures. *)
let specialize (m : Machine.t) (i : Instr.t) : unit -> unit =
  let regs = m.Machine.regs in
  let flags = m.Machine.flags in
  let a = arena m.Machine.mem in
  let ops = i.Instr.operands in
  let dst = ops.(Array.length ops - 1) in
  match i.Instr.op, loc ops.(0), loc dst with
  (* ----- flat shapes: one expression per closure, nothing boxed ----- *)
  (* GP moves and arithmetic: read dst, read src, flags, write — exactly
     the interpreter's order. *)
  | (Opcode.Mov Reg.Q | Opcode.Movabs), I v, G d -> fun () -> set regs d v
  | Opcode.Mov Reg.L, I v, G d ->
    let v = Int64.logand v lo32 in
    fun () -> set regs d v
  | Opcode.Mov Reg.Q, G s, G d -> fun () -> set regs d (get regs s)
  | Opcode.Mov Reg.L, G s, G d -> fun () -> set regs d (get32 regs s)
  | Opcode.Add Reg.Q, I b, G d -> fun () -> add_q flags regs d (get regs d) b
  | Opcode.Add Reg.Q, G s, G d -> fun () -> add_q flags regs d (get regs d) (get regs s)
  | Opcode.Add Reg.L, I b, G d ->
    let b = Int64.logand b lo32 in
    fun () -> add_l flags regs d (get32 regs d) b
  | Opcode.Add Reg.L, G s, G d -> fun () -> add_l flags regs d (get32 regs d) (get32 regs s)
  | Opcode.Sub Reg.Q, I b, G d -> fun () -> sub_q flags regs d (get regs d) b
  | Opcode.Sub Reg.Q, G s, G d -> fun () -> sub_q flags regs d (get regs d) (get regs s)
  | Opcode.Sub Reg.L, I b, G d ->
    let b = Int64.logand b lo32 in
    fun () -> sub_l flags regs d (get32 regs d) b
  | Opcode.Sub Reg.L, G s, G d -> fun () -> sub_l flags regs d (get32 regs d) (get32 regs s)
  | Opcode.And Reg.Q, I b, G d -> fun () -> logic_q flags regs d (Int64.logand (get regs d) b)
  | Opcode.And Reg.Q, G s, G d ->
    fun () -> logic_q flags regs d (Int64.logand (get regs d) (get regs s))
  | Opcode.And Reg.L, I b, G d ->
    let b = Int64.logand b lo32 in
    fun () -> logic_l flags regs d (Int64.logand (get32 regs d) b)
  | Opcode.And Reg.L, G s, G d ->
    fun () -> logic_l flags regs d (Int64.logand (get32 regs d) (get32 regs s))
  | Opcode.Or Reg.Q, I b, G d -> fun () -> logic_q flags regs d (Int64.logor (get regs d) b)
  | Opcode.Or Reg.Q, G s, G d ->
    fun () -> logic_q flags regs d (Int64.logor (get regs d) (get regs s))
  | Opcode.Or Reg.L, I b, G d ->
    let b = Int64.logand b lo32 in
    fun () -> logic_l flags regs d (Int64.logor (get32 regs d) b)
  | Opcode.Or Reg.L, G s, G d ->
    fun () -> logic_l flags regs d (Int64.logor (get32 regs d) (get32 regs s))
  | Opcode.Xor Reg.Q, I b, G d -> fun () -> logic_q flags regs d (Int64.logxor (get regs d) b)
  | Opcode.Xor Reg.Q, G s, G d ->
    fun () -> logic_q flags regs d (Int64.logxor (get regs d) (get regs s))
  | Opcode.Xor Reg.L, I b, G d ->
    let b = Int64.logand b lo32 in
    fun () -> logic_l flags regs d (Int64.logxor (get32 regs d) b)
  | Opcode.Xor Reg.L, G s, G d ->
    fun () -> logic_l flags regs d (Int64.logxor (get32 regs d) (get32 regs s))
  | (Opcode.Shl w | Opcode.Shr w | Opcode.Sar w), I c, G d ->
    (* a masked count of 0 writes the register back and leaves the flags *)
    let c = Int64.to_int c land (match w with Reg.Q -> 63 | Reg.L -> 31) in
    (match i.Instr.op, w with
     | _, Reg.Q when c = 0 -> nop
     | _, Reg.L when c = 0 -> fun () -> set regs d (get32 regs d)
     | Opcode.Shl _, Reg.Q -> fun () -> logic_q flags regs d (Int64.shift_left (get regs d) c)
     | Opcode.Shl _, Reg.L ->
       fun () -> logic_l flags regs d (Int64.shift_left (get32 regs d) c)
     | Opcode.Shr _, Reg.Q ->
       fun () -> logic_q flags regs d (Int64.shift_right_logical (get regs d) c)
     | Opcode.Shr _, Reg.L ->
       fun () -> logic_l flags regs d (Int64.shift_right_logical (get32 regs d) c)
     | _, Reg.Q -> fun () -> logic_q flags regs d (Int64.shift_right (get regs d) c)
     | _, Reg.L -> fun () -> logic_l flags regs d (Int64.shift_right (sext32 regs d) c))
  (* SSE moves.  A load faults before anything is written. *)
  | Opcode.Movss, X s, X d -> fun () -> Bytes.set_int32_le regs d (Bytes.get_int32_le regs s)
  | Opcode.Movss, M (b, disp), X d ->
    fun () ->
      set regs d (zext32 (load32 a (ea regs b disp)));
      set regs (d + 8) 0L
  | Opcode.Movss, X s, M (b, disp) ->
    fun () -> store32 a (ea regs b disp) (Bytes.get_int32_le regs s)
  | Opcode.Movsd, X s, X d -> fun () -> set regs d (get regs s)
  | (Opcode.Movsd | Opcode.Movq), M (b, disp), X d ->
    fun () ->
      set regs d (load64 a (ea regs b disp));
      set regs (d + 8) 0L
  | (Opcode.Movsd | Opcode.Movq), X s, M (b, disp) ->
    fun () -> store64 a (ea regs b disp) (get regs s)
  | Opcode.Movq, (X s | G s), X d ->
    fun () ->
      set regs d (get regs s);
      set regs (d + 8) 0L
  | Opcode.Movq, X s, G d -> fun () -> set regs d (get regs s)
  | Opcode.Movd, G s, X d ->
    fun () ->
      set regs d (get32 regs s);
      set regs (d + 8) 0L
  | Opcode.Movd, X s, G d -> fun () -> set regs d (get32 regs s)
  | (Opcode.Movaps | Opcode.Movups | Opcode.Lddqu), X s, X d ->
    fun () ->
      set regs d (get regs s);
      set regs (d + 8) (get regs (s + 8))
  | (Opcode.Movaps | Opcode.Movups | Opcode.Lddqu), M (b, disp), X d ->
    let aligned = i.Instr.op = Opcode.Movaps in
    fun () ->
      let addr = ea regs b disp in
      check_aligned aligned addr;
      let lo = load64 a addr in
      let hi = load64 a (Int64.add addr 8L) in
      set regs d lo;
      set regs (d + 8) hi
  | (Opcode.Movaps | Opcode.Movups | Opcode.Lddqu), X s, M (b, disp) ->
    let aligned = i.Instr.op = Opcode.Movaps in
    fun () ->
      let addr = ea regs b disp in
      check_aligned aligned addr;
      store64 a addr (get regs s);
      store64 a (Int64.add addr 8L) (get regs (s + 8))
  (* scalar f64: dst op= src *)
  | Opcode.Addsd, X s, X d -> fun () -> setf regs d (getf regs d +. getf regs s)
  | Opcode.Addsd, M (b, disp), X d ->
    fun () -> setf regs d (getf regs d +. loadf64 a (ea regs b disp))
  | Opcode.Subsd, X s, X d -> fun () -> setf regs d (getf regs d -. getf regs s)
  | Opcode.Subsd, M (b, disp), X d ->
    fun () -> setf regs d (getf regs d -. loadf64 a (ea regs b disp))
  | Opcode.Mulsd, X s, X d -> fun () -> setf regs d (getf regs d *. getf regs s)
  | Opcode.Mulsd, M (b, disp), X d ->
    fun () -> setf regs d (getf regs d *. loadf64 a (ea regs b disp))
  | Opcode.Divsd, X s, X d -> fun () -> setf regs d (getf regs d /. getf regs s)
  | Opcode.Divsd, M (b, disp), X d ->
    fun () -> setf regs d (getf regs d /. loadf64 a (ea regs b disp))
  | Opcode.Minsd, X s, X d -> fun () -> setf regs d (fmin (getf regs d) (getf regs s))
  | Opcode.Minsd, M (b, disp), X d ->
    fun () -> setf regs d (fmin (getf regs d) (loadf64 a (ea regs b disp)))
  | Opcode.Maxsd, X s, X d -> fun () -> setf regs d (fmax (getf regs d) (getf regs s))
  | Opcode.Maxsd, M (b, disp), X d ->
    fun () -> setf regs d (fmax (getf regs d) (loadf64 a (ea regs b disp)))
  | Opcode.Sqrtsd, X s, X d -> fun () -> setf regs d (Float.sqrt (getf regs s))
  | Opcode.Sqrtsd, M (b, disp), X d ->
    fun () -> setf regs d (Float.sqrt (loadf64 a (ea regs b disp)))
  (* scalar f32: computed in double, rounded once by the store *)
  | Opcode.Addss, X s, X d -> fun () -> setf32 regs d (getf32 regs d +. getf32 regs s)
  | Opcode.Addss, M (b, disp), X d ->
    fun () -> setf32 regs d (getf32 regs d +. loadf32 a (ea regs b disp))
  | Opcode.Subss, X s, X d -> fun () -> setf32 regs d (getf32 regs d -. getf32 regs s)
  | Opcode.Subss, M (b, disp), X d ->
    fun () -> setf32 regs d (getf32 regs d -. loadf32 a (ea regs b disp))
  | Opcode.Mulss, X s, X d -> fun () -> setf32 regs d (getf32 regs d *. getf32 regs s)
  | Opcode.Mulss, M (b, disp), X d ->
    fun () -> setf32 regs d (getf32 regs d *. loadf32 a (ea regs b disp))
  | Opcode.Divss, X s, X d -> fun () -> setf32 regs d (getf32 regs d /. getf32 regs s)
  | Opcode.Divss, M (b, disp), X d ->
    fun () -> setf32 regs d (getf32 regs d /. loadf32 a (ea regs b disp))
  | Opcode.Minss, X s, X d -> fun () -> setf32 regs d (fmin (getf32 regs d) (getf32 regs s))
  | Opcode.Minss, M (b, disp), X d ->
    fun () -> setf32 regs d (fmin (getf32 regs d) (loadf32 a (ea regs b disp)))
  | Opcode.Maxss, X s, X d -> fun () -> setf32 regs d (fmax (getf32 regs d) (getf32 regs s))
  | Opcode.Maxss, M (b, disp), X d ->
    fun () -> setf32 regs d (fmax (getf32 regs d) (loadf32 a (ea regs b disp)))
  | Opcode.Sqrtss, X s, X d -> fun () -> setf32 regs d (Float.sqrt (getf32 regs s))
  | Opcode.Sqrtss, M (b, disp), X d ->
    fun () -> setf32 regs d (Float.sqrt (loadf32 a (ea regs b disp)))
  (* int <-> double converts *)
  | Opcode.Cvtsi2sd Reg.Q, G s, X d -> fun () -> setf regs d (Int64.to_float (get regs s))
  | Opcode.Cvtsi2sd Reg.L, G s, X d -> fun () -> setf regs d (Int64.to_float (sext32 regs s))
  | Opcode.Cvtsi2sd Reg.Q, M (b, disp), X d ->
    fun () -> setf regs d (Int64.to_float (load64 a (ea regs b disp)))
  | Opcode.Cvtsi2sd Reg.L, M (b, disp), X d ->
    fun () -> setf regs d (Int64.to_float (Int64.of_int32 (load32 a (ea regs b disp))))
  | Opcode.Cvtsd2si Reg.Q, X s, G d -> fun () -> set regs d (f2i64 (rint_even (getf regs s)))
  | Opcode.Cvtsd2si Reg.L, X s, G d -> fun () -> set regs d (f2i32 (rint_even (getf regs s)))
  | Opcode.Cvttsd2si Reg.Q, X s, G d -> fun () -> set regs d (f2i64 (Float.trunc (getf regs s)))
  | Opcode.Cvttsd2si Reg.L, X s, G d -> fun () -> set regs d (f2i32 (Float.trunc (getf regs s)))
  (* packed f32 and f64 on xmm registers: lane by lane, each lane read
     just before it is written, which is Semantics.map_lanes4_f32 /
     map_lanes2_f64 even when [s = d] *)
  | Opcode.Addps, X s, X d ->
    fun () ->
      for k = 0 to 3 do
        let o = 4 * k in
        setf32 regs (d + o) (getf32 regs (d + o) +. getf32 regs (s + o))
      done
  | Opcode.Subps, X s, X d ->
    fun () ->
      for k = 0 to 3 do
        let o = 4 * k in
        setf32 regs (d + o) (getf32 regs (d + o) -. getf32 regs (s + o))
      done
  | Opcode.Mulps, X s, X d ->
    fun () ->
      for k = 0 to 3 do
        let o = 4 * k in
        setf32 regs (d + o) (getf32 regs (d + o) *. getf32 regs (s + o))
      done
  | Opcode.Addpd, X s, X d ->
    fun () ->
      setf regs d (getf regs d +. getf regs s);
      setf regs (d + 8) (getf regs (d + 8) +. getf regs (s + 8))
  | Opcode.Subpd, X s, X d ->
    fun () ->
      setf regs d (getf regs d -. getf regs s);
      setf regs (d + 8) (getf regs (d + 8) -. getf regs (s + 8))
  | Opcode.Mulpd, X s, X d ->
    fun () ->
      setf regs d (getf regs d *. getf regs s);
      setf regs (d + 8) (getf regs (d + 8) *. getf regs (s + 8))
  (* interleave the low dwords: d0 s0 d1 s1 *)
  | (Opcode.Punpckldq | Opcode.Unpcklps), X s, X d ->
    fun () ->
      let d1 = Bytes.get_int32_le regs (d + 4) in
      let s0 = Bytes.get_int32_le regs s and s1 = Bytes.get_int32_le regs (s + 4) in
      Bytes.set_int32_le regs (d + 4) s0;
      Bytes.set_int32_le regs (d + 8) d1;
      Bytes.set_int32_le regs (d + 12) s1
  (* packed bit operations and quad arithmetic on registers
     (Semantics' packed_bitop): each half reads only its own halves, so
     writing the low one first is right even when [s = d] *)
  | (Opcode.Andps | Opcode.Andpd | Opcode.Pand), X s, X d ->
    fun () ->
      set regs d (Int64.logand (get regs d) (get regs s));
      set regs (d + 8) (Int64.logand (get regs (d + 8)) (get regs (s + 8)))
  | (Opcode.Orps | Opcode.Orpd | Opcode.Por), X s, X d ->
    fun () ->
      set regs d (Int64.logor (get regs d) (get regs s));
      set regs (d + 8) (Int64.logor (get regs (d + 8)) (get regs (s + 8)))
  | (Opcode.Xorps | Opcode.Xorpd | Opcode.Pxor), X s, X d ->
    fun () ->
      set regs d (Int64.logxor (get regs d) (get regs s));
      set regs (d + 8) (Int64.logxor (get regs (d + 8)) (get regs (s + 8)))
  | Opcode.Andnps, X s, X d ->
    fun () ->
      set regs d (Int64.logand (Int64.lognot (get regs d)) (get regs s));
      set regs (d + 8) (Int64.logand (Int64.lognot (get regs (d + 8))) (get regs (s + 8)))
  | Opcode.Paddq, X s, X d ->
    fun () ->
      set regs d (Int64.add (get regs d) (get regs s));
      set regs (d + 8) (Int64.add (get regs (d + 8)) (get regs (s + 8)))
  | Opcode.Psubq, X s, X d ->
    fun () ->
      set regs d (Int64.sub (get regs d) (get regs s));
      set regs (d + 8) (Int64.sub (get regs (d + 8)) (get regs (s + 8)))
  (* dword lanes, each wrapping mod 2^32 *)
  | Opcode.Paddd, X s, X d ->
    fun () ->
      for k = 0 to 3 do
        let o = 4 * k in
        Bytes.set_int32_le regs (d + o)
          (Int32.add (Bytes.get_int32_le regs (d + o)) (Bytes.get_int32_le regs (s + o)))
      done
  | Opcode.Psubd, X s, X d ->
    fun () ->
      for k = 0 to 3 do
        let o = 4 * k in
        Bytes.set_int32_le regs (d + o)
          (Int32.sub (Bytes.get_int32_le regs (d + o)) (Bytes.get_int32_le regs (s + o)))
      done
  (* half moves: the untouched half stays *)
  | (Opcode.Movlhps | Opcode.Unpcklpd | Opcode.Punpcklqdq), X s, X d ->
    fun () -> set regs (d + 8) (get regs s)
  | Opcode.Movhlps, X s, X d -> fun () -> set regs d (get regs (s + 8))
  (* AVX packed bit operations: [s2] is the first source, [s1] the second *)
  | (Opcode.Vandps | Opcode.Vxorps), X s2, X d ->
    (match ops.(1) with
     | Operand.Xmm s1 ->
       let s1 = xi s1 in
       if i.Instr.op = Opcode.Vandps then fun () ->
         set regs d (Int64.logand (get regs s1) (get regs s2));
         set regs (d + 8) (Int64.logand (get regs (s1 + 8)) (get regs (s2 + 8)))
       else fun () ->
         set regs d (Int64.logxor (get regs s1) (get regs s2));
         set regs (d + 8) (Int64.logxor (get regs (s1 + 8)) (get regs (s2 + 8)))
     | _ -> specialize_generic m i)
  (* the scalar converts between f32, f64 and integers on registers *)
  | Opcode.Cvtss2sd, X s, X d -> fun () -> setf regs d (getf32 regs s)
  | Opcode.Cvtsd2ss, X s, X d -> fun () -> setf32 regs d (getf regs s)
  | Opcode.Cvtsi2ss Reg.Q, G s, X d -> fun () -> setf32 regs d (Int64.to_float (get regs s))
  | Opcode.Cvtsi2ss Reg.L, G s, X d ->
    fun () -> setf32 regs d (Int64.to_float (sext32 regs s))
  (* compares set ZF, PF, CF from dst against src *)
  | (Opcode.Comisd | Opcode.Ucomisd), X s, X d ->
    fun () -> fp_compare flags (getf regs d) (getf regs s)
  | (Opcode.Comiss | Opcode.Ucomiss), X s, X d ->
    fun () -> fp_compare flags (getf32 regs d) (getf32 regs s)
  (* packed min/max of singles, lane by lane (Semantics' packed_f32
     with Fp32.min/max); a memory source is bounds-checked whole first *)
  | Opcode.Minps, X s, X d ->
    fun () ->
      for k = 0 to 3 do
        let o = 4 * k in
        setf32 regs (d + o) (fmin (getf32 regs (d + o)) (getf32 regs (s + o)))
      done
  | Opcode.Minps, M (base, disp), X d ->
    fun () ->
      let off = offset128 a (ea regs base disp) in
      for k = 0 to 3 do
        let o = 4 * k in
        setf32 regs (d + o) (fmin (getf32 regs (d + o)) (mgetf32 a (off + o)))
      done
  | Opcode.Maxps, X s, X d ->
    fun () ->
      for k = 0 to 3 do
        let o = 4 * k in
        setf32 regs (d + o) (fmax (getf32 regs (d + o)) (getf32 regs (s + o)))
      done
  | Opcode.Maxps, M (base, disp), X d ->
    fun () ->
      let off = offset128 a (ea regs base disp) in
      for k = 0 to 3 do
        let o = 4 * k in
        setf32 regs (d + o) (fmax (getf32 regs (d + o)) (mgetf32 a (off + o)))
      done
  (* vector shifts by an immediate: every lane zero once the count
     reaches the lane width *)
  | (Opcode.Pslld | Opcode.Psrld), I c, X d when Int64.compare c 0L >= 0 ->
    let c = Int64.to_int c in
    if c >= 32 then fun () ->
      set regs d 0L;
      set regs (d + 8) 0L
    else if i.Instr.op == Opcode.Pslld then fun () ->
      for k = 0 to 3 do
        let o = d + (4 * k) in
        Bytes.set_int32_le regs o (Int32.shift_left (Bytes.get_int32_le regs o) c)
      done
    else fun () ->
      for k = 0 to 3 do
        let o = d + (4 * k) in
        Bytes.set_int32_le regs o (Int32.shift_right_logical (Bytes.get_int32_le regs o) c)
      done
  | (Opcode.Psllq | Opcode.Psrlq), I c, X d when Int64.compare c 0L >= 0 ->
    let c = Int64.to_int c in
    if c >= 64 then fun () ->
      set regs d 0L;
      set regs (d + 8) 0L
    else if i.Instr.op == Opcode.Psllq then fun () ->
      set regs d (Int64.shift_left (get regs d) c);
      set regs (d + 8) (Int64.shift_left (get regs (d + 8)) c)
    else fun () ->
      set regs d (Int64.shift_right_logical (get regs d) c);
      set regs (d + 8) (Int64.shift_right_logical (get regs (d + 8)) c)
  (* dword shuffles: the byte offset of each picked lane is known at
     translation, and every lane is read before [d] is written *)
  | Opcode.Pshufd, I sel, X d ->
    (match ops.(1) with
     | Operand.Xmm s ->
       let s = xi s and sel = Int64.to_int sel in
       let pick k = s + (4 * ((sel lsr (2 * k)) land 3)) in
       let o0 = pick 0 and o1 = pick 1 and o2 = pick 2 and o3 = pick 3 in
       fun () ->
         let l0 = Bytes.get_int32_le regs o0 and l1 = Bytes.get_int32_le regs o1 in
         let l2 = Bytes.get_int32_le regs o2 and l3 = Bytes.get_int32_le regs o3 in
         Bytes.set_int32_le regs d l0;
         Bytes.set_int32_le regs (d + 4) l1;
         Bytes.set_int32_le regs (d + 8) l2;
         Bytes.set_int32_le regs (d + 12) l3
     | _ -> specialize_generic m i)
  | Opcode.Shufps, I sel, X d ->
    (match ops.(1) with
     | Operand.Xmm s ->
       let s = xi s and sel = Int64.to_int sel in
       let pick r k = r + (4 * ((sel lsr (2 * k)) land 3)) in
       let o0 = pick d 0 and o1 = pick d 1 and o2 = pick s 2 and o3 = pick s 3 in
       fun () ->
         let l0 = Bytes.get_int32_le regs o0 and l1 = Bytes.get_int32_le regs o1 in
         let l2 = Bytes.get_int32_le regs o2 and l3 = Bytes.get_int32_le regs o3 in
         Bytes.set_int32_le regs d l0;
         Bytes.set_int32_le regs (d + 4) l1;
         Bytes.set_int32_le regs (d + 8) l2;
         Bytes.set_int32_le regs (d + 12) l3
     | _ -> specialize_generic m i)
  (* AVX interleave of the low dwords: s1.0 s2.0 s1.1 s2.1 *)
  | Opcode.Vunpcklps, ((X _ | M _) as src2), X d ->
    (match ops.(1), src2 with
     | Operand.Xmm s1, X s2 ->
       let s1 = xi s1 in
       fun () ->
         let a0 = Bytes.get_int32_le regs s1 and a1 = Bytes.get_int32_le regs (s1 + 4) in
         let b0 = Bytes.get_int32_le regs s2 and b1 = Bytes.get_int32_le regs (s2 + 4) in
         Bytes.set_int32_le regs d a0;
         Bytes.set_int32_le regs (d + 4) b0;
         Bytes.set_int32_le regs (d + 8) a1;
         Bytes.set_int32_le regs (d + 12) b1
     | Operand.Xmm s1, M (base, disp) ->
       let s1 = xi s1 in
       fun () ->
         let off = offset128 a (ea regs base disp) in
         let b0 = Bytes.get_int32_le a.data off and b1 = Bytes.get_int32_le a.data (off + 4) in
         let a0 = Bytes.get_int32_le regs s1 and a1 = Bytes.get_int32_le regs (s1 + 4) in
         Bytes.set_int32_le regs d a0;
         Bytes.set_int32_le regs (d + 4) b0;
         Bytes.set_int32_le regs (d + 8) a1;
         Bytes.set_int32_le regs (d + 12) b1
     | _ -> specialize_generic m i)
  (* AVX packed singles: lane [k] of [d] from lane [k] of [s1] and [s2],
     each lane read just before it is written *)
  | (Opcode.Vaddps | Opcode.Vsubps | Opcode.Vmulps), ((X _ | M _) as src2), X d ->
    (match ops.(1) with
     | Operand.Xmm s1 ->
       let s1 = xi s1 in
       (match i.Instr.op, src2 with
        | Opcode.Vaddps, X s2 ->
          fun () ->
            for k = 0 to 3 do
              let o = 4 * k in
              setf32 regs (d + o) (getf32 regs (s1 + o) +. getf32 regs (s2 + o))
            done
        | Opcode.Vsubps, X s2 ->
          fun () ->
            for k = 0 to 3 do
              let o = 4 * k in
              setf32 regs (d + o) (getf32 regs (s1 + o) -. getf32 regs (s2 + o))
            done
        | Opcode.Vmulps, X s2 ->
          fun () ->
            for k = 0 to 3 do
              let o = 4 * k in
              setf32 regs (d + o) (getf32 regs (s1 + o) *. getf32 regs (s2 + o))
            done
        | Opcode.Vaddps, M (base, disp) ->
          fun () ->
            let off = offset128 a (ea regs base disp) in
            for k = 0 to 3 do
              let o = 4 * k in
              setf32 regs (d + o) (getf32 regs (s1 + o) +. mgetf32 a (off + o))
            done
        | Opcode.Vsubps, M (base, disp) ->
          fun () ->
            let off = offset128 a (ea regs base disp) in
            for k = 0 to 3 do
              let o = 4 * k in
              setf32 regs (d + o) (getf32 regs (s1 + o) -. mgetf32 a (off + o))
            done
        | Opcode.Vmulps, M (base, disp) ->
          fun () ->
            let off = offset128 a (ea regs base disp) in
            for k = 0 to 3 do
              let o = 4 * k in
              setf32 regs (d + o) (getf32 regs (s1 + o) *. mgetf32 a (off + o))
            done
        | _ -> specialize_generic m i)
     | _ -> specialize_generic m i)
  (* GP compares set the flags of dst - src and dst & src; a memory
     source is loaded first *)
  | Opcode.Cmp Reg.Q, G s, G d ->
    fun () ->
      let x = get regs d and y = get regs s in
      sub_flags_q flags x y (Int64.sub x y)
  | Opcode.Cmp Reg.Q, I y, G d ->
    fun () ->
      let x = get regs d in
      sub_flags_q flags x y (Int64.sub x y)
  | Opcode.Cmp Reg.Q, M (base, disp), G d ->
    fun () ->
      let y = load64 a (ea regs base disp) in
      let x = get regs d in
      sub_flags_q flags x y (Int64.sub x y)
  | Opcode.Cmp Reg.L, G s, G d ->
    fun () ->
      let x = get32 regs d and y = get32 regs s in
      sub_flags_l flags x y (Int64.sub x y)
  | Opcode.Cmp Reg.L, I y, G d ->
    let y = Int64.logand y lo32 in
    fun () ->
      let x = get32 regs d in
      sub_flags_l flags x y (Int64.sub x y)
  | Opcode.Cmp Reg.L, M (base, disp), G d ->
    fun () ->
      let y = zext32 (load32 a (ea regs base disp)) in
      let x = get32 regs d in
      sub_flags_l flags x y (Int64.sub x y)
  | Opcode.Test Reg.Q, G s, G d ->
    fun () -> logic_flags_q flags (Int64.logand (get regs d) (get regs s))
  | Opcode.Test Reg.Q, I y, G d -> fun () -> logic_flags_q flags (Int64.logand (get regs d) y)
  | Opcode.Test Reg.Q, M (base, disp), G d ->
    fun () ->
      let y = load64 a (ea regs base disp) in
      logic_flags_q flags (Int64.logand (get regs d) y)
  | Opcode.Test Reg.L, G s, G d ->
    fun () -> logic_flags_l flags (Int64.logand (get32 regs d) (get32 regs s))
  | Opcode.Test Reg.L, I y, G d ->
    let y = Int64.logand y lo32 in
    fun () -> logic_flags_l flags (Int64.logand (get32 regs d) y)
  | Opcode.Test Reg.L, M (base, disp), G d ->
    fun () ->
      let y = zext32 (load32 a (ea regs base disp)) in
      logic_flags_l flags (Int64.logand (get32 regs d) y)
  (* GP unary: inc/dec keep CF, neg sets the flags of 0 - dst, not sets
     none *)
  | Opcode.Inc Reg.Q, _, G d ->
    fun () ->
      let x = get regs d in
      let r = Int64.add x 1L in
      let cf = flags.Machine.cf in
      add_flags_q flags x 1L r;
      flags.Machine.cf <- cf;
      set regs d r
  | Opcode.Inc Reg.L, _, G d ->
    fun () ->
      let x = get32 regs d in
      let r = Int64.add x 1L in
      let cf = flags.Machine.cf in
      add_flags_l flags x 1L r;
      flags.Machine.cf <- cf;
      set regs d (Int64.logand r lo32)
  | Opcode.Dec Reg.Q, _, G d ->
    fun () ->
      let x = get regs d in
      let r = Int64.sub x 1L in
      let cf = flags.Machine.cf in
      sub_flags_q flags x 1L r;
      flags.Machine.cf <- cf;
      set regs d r
  | Opcode.Dec Reg.L, _, G d ->
    fun () ->
      let x = get32 regs d in
      let r = Int64.sub x 1L in
      let cf = flags.Machine.cf in
      sub_flags_l flags x 1L r;
      flags.Machine.cf <- cf;
      set regs d (Int64.logand r lo32)
  | Opcode.Neg Reg.Q, _, G d -> fun () -> sub_q flags regs d 0L (get regs d)
  | Opcode.Neg Reg.L, _, G d -> fun () -> sub_l flags regs d 0L (get32 regs d)
  | Opcode.Not Reg.Q, _, G d -> fun () -> set regs d (Int64.lognot (get regs d))
  | Opcode.Not Reg.L, _, G d ->
    fun () -> set regs d (Int64.logand (Int64.lognot (get regs d)) lo32)
  (* signed multiply: the low half of the product of the sign-extended
     operands, with the logic flags of the untruncated product *)
  | Opcode.Imul Reg.Q, G s, G d -> fun () -> logic_q flags regs d (Int64.mul (get regs d) (get regs s))
  | Opcode.Imul Reg.Q, M (base, disp), G d ->
    fun () ->
      let y = load64 a (ea regs base disp) in
      logic_q flags regs d (Int64.mul (get regs d) y)
  | Opcode.Imul Reg.L, G s, G d ->
    fun () -> logic_l flags regs d (Int64.mul (sext32 regs d) (sext32 regs s))
  | Opcode.Imul Reg.L, M (base, disp), G d ->
    fun () ->
      let y = Int64.of_int32 (load32 a (ea regs base disp)) in
      logic_l flags regs d (Int64.mul (sext32 regs d) y)
  (* AVX scalar f64 (Semantics' avx3_f64): the low quad [f s1 s2], the
     high quad [s1]'s; a memory [s2] is loaded first, so a fault writes
     nothing *)
  | ( ( Opcode.Vaddsd | Opcode.Vsubsd | Opcode.Vmulsd | Opcode.Vdivsd | Opcode.Vminsd
      | Opcode.Vmaxsd ),
      ((X _ | M _) as src2),
      X d ) ->
    (match ops.(1) with
     | Operand.Xmm s1 ->
       let s1 = xi s1 in
       (match i.Instr.op, src2 with
        | Opcode.Vaddsd, X s2 ->
          fun () -> avx3_sd regs d s1 (getf regs s1 +. getf regs s2)
        | Opcode.Vaddsd, M (base, disp) ->
          fun () ->
            let x2 = loadf64 a (ea regs base disp) in
            avx3_sd regs d s1 (getf regs s1 +. x2)
        | Opcode.Vsubsd, X s2 ->
          fun () -> avx3_sd regs d s1 (getf regs s1 -. getf regs s2)
        | Opcode.Vsubsd, M (base, disp) ->
          fun () ->
            let x2 = loadf64 a (ea regs base disp) in
            avx3_sd regs d s1 (getf regs s1 -. x2)
        | Opcode.Vmulsd, X s2 ->
          fun () -> avx3_sd regs d s1 (getf regs s1 *. getf regs s2)
        | Opcode.Vmulsd, M (base, disp) ->
          fun () ->
            let x2 = loadf64 a (ea regs base disp) in
            avx3_sd regs d s1 (getf regs s1 *. x2)
        | Opcode.Vdivsd, X s2 ->
          fun () -> avx3_sd regs d s1 (getf regs s1 /. getf regs s2)
        | Opcode.Vdivsd, M (base, disp) ->
          fun () ->
            let x2 = loadf64 a (ea regs base disp) in
            avx3_sd regs d s1 (getf regs s1 /. x2)
        | Opcode.Vminsd, X s2 ->
          fun () -> avx3_sd regs d s1 (fmin (getf regs s1) (getf regs s2))
        | Opcode.Vminsd, M (base, disp) ->
          fun () ->
            let x2 = loadf64 a (ea regs base disp) in
            avx3_sd regs d s1 (fmin (getf regs s1) x2)
        | Opcode.Vmaxsd, X s2 ->
          fun () -> avx3_sd regs d s1 (fmax (getf regs s1) (getf regs s2))
        | Opcode.Vmaxsd, M (base, disp) ->
          fun () ->
            let x2 = loadf64 a (ea regs base disp) in
            avx3_sd regs d s1 (fmax (getf regs s1) x2)
        | _ -> specialize_generic m i)
     | _ -> specialize_generic m i)
  (* AVX scalar f32 (Semantics' avx3_f32), rounded once by the bits *)
  | ( ( Opcode.Vaddss | Opcode.Vsubss | Opcode.Vmulss | Opcode.Vdivss | Opcode.Vminss
      | Opcode.Vmaxss ),
      ((X _ | M _) as src2),
      X d ) ->
    (match ops.(1) with
     | Operand.Xmm s1 ->
       let s1 = xi s1 in
       (match i.Instr.op, src2 with
        | Opcode.Vaddss, X s2 ->
          fun () ->
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 +. getf32 regs s2))
        | Opcode.Vaddss, M (base, disp) ->
          fun () ->
            let x2 = loadf32 a (ea regs base disp) in
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 +. x2))
        | Opcode.Vsubss, X s2 ->
          fun () ->
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 -. getf32 regs s2))
        | Opcode.Vsubss, M (base, disp) ->
          fun () ->
            let x2 = loadf32 a (ea regs base disp) in
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 -. x2))
        | Opcode.Vmulss, X s2 ->
          fun () ->
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 *. getf32 regs s2))
        | Opcode.Vmulss, M (base, disp) ->
          fun () ->
            let x2 = loadf32 a (ea regs base disp) in
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 *. x2))
        | Opcode.Vdivss, X s2 ->
          fun () ->
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 /. getf32 regs s2))
        | Opcode.Vdivss, M (base, disp) ->
          fun () ->
            let x2 = loadf32 a (ea regs base disp) in
            avx3_ss regs d s1 (Int32.bits_of_float (getf32 regs s1 /. x2))
        | Opcode.Vminss, X s2 ->
          fun () ->
            avx3_ss regs d s1 (Int32.bits_of_float (fmin (getf32 regs s1) (getf32 regs s2)))
        | Opcode.Vminss, M (base, disp) ->
          fun () ->
            let x2 = loadf32 a (ea regs base disp) in
            avx3_ss regs d s1 (Int32.bits_of_float (fmin (getf32 regs s1) x2))
        | Opcode.Vmaxss, X s2 ->
          fun () ->
            avx3_ss regs d s1 (Int32.bits_of_float (fmax (getf32 regs s1) (getf32 regs s2)))
        | Opcode.Vmaxss, M (base, disp) ->
          fun () ->
            let x2 = loadf32 a (ea regs base disp) in
            avx3_ss regs d s1 (Int32.bits_of_float (fmax (getf32 regs s1) x2))
        | _ -> specialize_generic m i)
     | _ -> specialize_generic m i)
  (* the low quad's words picked by the immediate, the high quad
     copied: both read before [d] is written *)
  | (Opcode.Vpshuflw | Opcode.Pshuflw), I sel, X d ->
    (match ops.(1) with
     | Operand.Xmm s ->
       let s = xi s and sel = Int64.to_int sel in
       let sh k = 16 * ((sel lsr (2 * k)) land 3) in
       let sh0 = sh 0 and sh1 = sh 1 and sh2 = sh 2 and sh3 = sh 3 in
       fun () ->
         let lo = get regs s and hi = get regs (s + 8) in
         set regs d
           (Int64.logor
              (Int64.logor (word16 lo sh0) (Int64.shift_left (word16 lo sh1) 16))
              (Int64.logor
                 (Int64.shift_left (word16 lo sh2) 32)
                 (Int64.shift_left (word16 lo sh3) 48)));
         set regs (d + 8) hi
     | _ -> specialize_generic m i)
  | _ -> specialize_generic m i

let instr_closure (m : Machine.t) (i : Instr.t) : unit -> unit =
  (* Operand arrays are resolved eagerly during specialization; an
     instruction with no operands (unconstructible via the mutation
     pools, but cheap to guard) goes through the interpreter so any
     failure surfaces at run time, matching [Exec.run]. *)
  if Array.length i.Instr.operands = 0 then generic_closure m i
  else specialize m i

(* A memo is a slot table ([Facts]) translating for one machine: the
   table keeps each slot's closure with its other facts, and its active
   slots' closures densely, so a prepare reads four fields and a run
   calls no step for an [Unused] slot. *)
type memo = {
  table : Facts.t;
  view : t;  (** the program last prepared, over the table's arrays *)
}

let memo m =
  { table = Facts.create ~translate:(instr_closure m) ();
    view = { steps = [||]; lats = [||]; count = 0; cycles = 0; ran = 0 } }

let table memo = memo.table

let prepare memo =
  let table = memo.table and v = memo.view in
  v.steps <- Facts.steps table;
  v.lats <- Facts.step_latencies table;
  v.count <- Facts.active table;
  v.cycles <- Facts.latency table;
  v

let compile m (p : Program.t) =
  let instrs = Array.of_list (Program.instrs p) in
  let lats = Array.map Latency.of_instr instrs in
  {
    steps = Array.map (instr_closure m) instrs;
    lats;
    count = Array.length instrs;
    cycles = Array.fold_left ( + ) 0 lats;
    ran = 0;
  }

(* Run the steps until one faults; [t.ran] counts the steps started. *)
let run_steps (t : t) : Exec.outcome =
  let steps = t.steps in
  let n = t.count in
  let i = ref 0 in
  try
    while !i < n do
      steps.(!i) ();
      incr i
    done;
    t.ran <- n;
    Exec.Finished
  with
  | Fault f ->
    t.ran <- !i + 1;
    Exec.Faulted f
  | Memory.Fault_exn mf ->
    t.ran <- !i + 1;
    Exec.Faulted (Semantics.Segv (Memory.fault_to_string mf))

(* A faulting run's cycles: the latencies of the steps it started. *)
let cycles_run (t : t) =
  if t.ran = t.count then t.cycles
  else begin
    let c = ref 0 in
    for k = 0 to t.ran - 1 do
      c := !c + t.lats.(k)
    done;
    !c
  end

let record (t : t) outcome =
  if Exec.Counters.is_enabled () then
    Exec.Counters.record ~run_cycles:(cycles_run t) ~run_instrs:t.ran
      ~faulted:(match outcome with Exec.Finished -> false | Exec.Faulted _ -> true)

let exec (t : t) : Exec.result =
  let outcome = run_steps t in
  record t outcome;
  { Exec.outcome; cycles = cycles_run t; executed = t.ran }

let run (t : t) =
  let outcome = run_steps t in
  record t outcome;
  match outcome with
  | Exec.Finished -> true
  | Exec.Faulted _ -> false

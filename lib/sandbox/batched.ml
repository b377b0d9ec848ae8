(* Batched execution engine: translate a program once into an array of
   pre-specialized closures over a *batch* of N test-case lanes, then run
   every lane through each instruction before advancing to the next.

   Layout is struct-of-arrays: one [Bytes.t] plane holds register r's
   value for every lane contiguously (offset [(r * n + lane) * 8]), so
   the per-instruction lane loop is a linear walk over unboxed storage —
   no per-test machine restore, no boxed [int64 array] writes, and the
   per-proposal translation cost is paid once for all N lanes.

   Pristine state is baked per batch: [create_batch] applies each test
   case to a copy of the pristine machine and scatters the result into
   [gp0]/[xmm0] image planes plus per-lane memory arenas, so [reset] is
   two [Bytes.blit]s, a flag restore, and one O(bytes written)
   {!Memory.restore_from} per lane — instead of a full restore + test
   case application per test per proposal.

   A faulting lane *parks*: its fault, executed count, and cycle count
   are latched, it is compacted out of the live-lane set, and the
   remaining lanes proceed.  {!exec}'s optional [on_fault] hook fires at
   the moment a lane parks, letting the caller abort the whole batch as
   soon as the latched faults alone prove the proposal will be rejected
   (the batch-granular cutoff; see {!Cost}).

   Bit-identical by construction, like {!Compiled}: every closure
   mirrors the corresponding arm of {!Semantics.step} — same read order,
   same fault order, same fault messages — and all value-level
   arithmetic is shared with the interpreter via {!Semantics}'s exported
   helpers.  Flag updates and conditions run against a per-lane scratch
   {!Machine.t} whose [flags] record and [mem] arena *are* the lane's
   own (shared by identity), so the interpreter's flag helpers apply
   unchanged.  Opcodes without a specialized translation sync the lane's
   registers into its scratch machine, step {!Semantics.step}, and sync
   back — so the engines cannot diverge on them. *)

open X86

exception Fault of Semantics.fault
exception Abort

type batch = {
  n : int;  (* number of lanes = test cases *)
  gp : Bytes.t;  (* 16*n quads, register-major *)
  xmm : Bytes.t;  (* 32*n quads, quad-slot-major *)
  gp0 : Bytes.t;  (* baked pristine+testcase images *)
  xmm0 : Bytes.t;
  flags0 : Machine.flags;
  mem : Memory.t array;  (* per-lane arenas *)
  mem0 : Memory.t array;  (* baked pristine+testcase arenas *)
  scr : Machine.t array;
      (* per-lane scratch machines; [flags] and [mem] are the lane's own
         (shared by identity), register arrays are sync buffers *)
  live : int array;  (* live lane indices occupy the first n_live slots *)
  mutable n_live : int;
  mutable li : int;  (* cursor into [live] during a batch-step *)
  mutable cur_step : int;
  mutable cur_lat : int;  (* lat_prefix.(cur_step + 1), for parking *)
  fault : Semantics.fault option array;  (* latched per lane *)
  executed : int array;
  cycles : int array;
}

type t = {
  b : batch;
  steps : (unit -> unit) array;
  lat_prefix : int array;
      (* lat_prefix.(k) = cycles after executing the first k closures *)
}

let xi r = 2 * Reg.xmm_index r
let gi r = Reg.gp_index r

let lo32 = 0xffff_ffffL
let hi32_mask = 0xffff_ffff_0000_0000L

(* ----- plane access ----- *)

let get_gp_lane b g lane = Bytes.get_int64_le b.gp (((g * b.n) + lane) lsl 3)
let set_gp_lane b g lane v = Bytes.set_int64_le b.gp (((g * b.n) + lane) lsl 3) v
let get_xq_lane b k lane = Bytes.get_int64_le b.xmm (((k * b.n) + lane) lsl 3)
let set_xq_lane b k lane v = Bytes.set_int64_le b.xmm (((k * b.n) + lane) lsl 3) v

let sync_to_scratch b lane =
  let m = b.scr.(lane) in
  for g = 0 to 15 do
    Bytes.set_int64_le m.Machine.regs (8 * g) (get_gp_lane b g lane)
  done;
  for k = 0 to 31 do
    Bytes.set_int64_le m.Machine.regs (Machine.xmm_base + (8 * k))
      (get_xq_lane b k lane)
  done

let sync_from_scratch b lane =
  let m = b.scr.(lane) in
  for g = 0 to 15 do
    set_gp_lane b g lane (Bytes.get_int64_le m.Machine.regs (8 * g))
  done;
  for k = 0 to 31 do
    set_xq_lane b k lane
      (Bytes.get_int64_le m.Machine.regs (Machine.xmm_base + (8 * k)))
  done

(* ----- batch lifecycle ----- *)

let copy_flags (f : Machine.flags) =
  {
    Machine.cf = f.Machine.cf;
    zf = f.Machine.zf;
    sf = f.Machine.sf;
    o_f = f.Machine.o_f;
    pf = f.Machine.pf;
  }

let create_batch (pristine : Machine.t) (tests : Testcase.t array) : batch =
  let n = Array.length tests in
  if n = 0 then invalid_arg "Batched.create_batch: empty test set";
  let gp0 = Bytes.create ((16 * n) lsl 3) in
  let xmm0 = Bytes.create ((32 * n) lsl 3) in
  let mem0 =
    Array.init n (fun lane ->
        let m = Machine.copy pristine in
        Testcase.apply tests.(lane) m;
        for g = 0 to 15 do
          Bytes.set_int64_le gp0 (((g * n) + lane) lsl 3)
            (Bytes.get_int64_le m.Machine.regs (8 * g))
        done;
        for k = 0 to 31 do
          Bytes.set_int64_le xmm0 (((k * n) + lane) lsl 3)
            (Bytes.get_int64_le m.Machine.regs (Machine.xmm_base + (8 * k)))
        done;
        m.Machine.mem)
  in
  let mem =
    Array.init n (fun lane ->
        let a = Memory.copy mem0.(lane) in
        (* establish the remembered-source fast path for restore_from *)
        Memory.blit_from ~src:mem0.(lane) ~dst:a;
        a)
  in
  let scr =
    Array.init n (fun lane ->
        {
          Machine.regs = Bytes.make Machine.regs_size '\000';
          flags = copy_flags pristine.Machine.flags;
          mem = mem.(lane);
        })
  in
  {
    n;
    gp = Bytes.copy gp0;
    xmm = Bytes.copy xmm0;
    gp0;
    xmm0;
    flags0 = copy_flags pristine.Machine.flags;
    mem;
    mem0;
    scr;
    live = Array.init n (fun l -> l);
    n_live = n;
    li = 0;
    cur_step = 0;
    cur_lat = 0;
    fault = Array.make n None;
    executed = Array.make n 0;
    cycles = Array.make n 0;
  }

let lane_count b = b.n

let reset b =
  Bytes.blit b.gp0 0 b.gp 0 (Bytes.length b.gp0);
  Bytes.blit b.xmm0 0 b.xmm 0 (Bytes.length b.xmm0);
  let f0 = b.flags0 in
  for lane = 0 to b.n - 1 do
    let f = b.scr.(lane).Machine.flags in
    f.Machine.cf <- f0.Machine.cf;
    f.Machine.zf <- f0.Machine.zf;
    f.Machine.sf <- f0.Machine.sf;
    f.Machine.o_f <- f0.Machine.o_f;
    f.Machine.pf <- f0.Machine.pf;
    Memory.restore_from ~src:b.mem0.(lane) ~dst:b.mem.(lane);
    b.live.(lane) <- lane;
    b.fault.(lane) <- None;
    b.executed.(lane) <- 0;
    b.cycles.(lane) <- 0
  done;
  b.li <- 0;
  b.n_live <- b.n

let apply_testcase b ~lane tc =
  sync_to_scratch b lane;
  Testcase.apply tc b.scr.(lane);
  sync_from_scratch b lane

let lane_machine b ~lane =
  sync_to_scratch b lane;
  b.scr.(lane)

let fault b ~lane = b.fault.(lane)

let result b ~lane =
  let outcome =
    match b.fault.(lane) with
    | None -> Exec.Finished
    | Some f -> Exec.Faulted f
  in
  { Exec.outcome; cycles = b.cycles.(lane); executed = b.executed.(lane) }

let rec blit_quads b ~lane dst = function
  | [] -> ()
  | o :: rest ->
    (match o with
     | Spec.Out_xmm_f64 r | Spec.Out_xmm_f32 r | Spec.Out_xmm_f32_hi r ->
       Bytes.set_int64_le dst (Machine.xmm_offset r) (get_xq_lane b (xi r) lane)
     | Spec.Out_gp r -> Bytes.set_int64_le dst (Machine.gp_offset r) (get_gp_lane b (gi r) lane));
    blit_quads b ~lane dst rest

let blit_outputs b ~lane (spec : Spec.t) dst = blit_quads b ~lane dst spec.Spec.outputs

(* ----- translation ----- *)

(* Fallback for opcodes without a specialized translation: round-trip
   the lane's registers through its scratch machine and step the
   reference interpreter.  Flags and memory are shared by identity, so
   only the register files need syncing. *)
let generic_closure (bt : batch) (i : Instr.t) : unit -> unit =
 fun () ->
  while bt.li < bt.n_live do
    let lane = bt.live.(bt.li) in
    sync_to_scratch bt lane;
    let r = Semantics.step bt.scr.(lane) i in
    sync_from_scratch bt lane;
    (match r with
     | Ok () -> ()
     | Error f -> raise (Fault f));
    bt.li <- bt.li + 1
  done

let specialize (bt : batch) (i : Instr.t) : unit -> unit =
  let n = bt.n in
  let gpB = bt.gp in
  let xmmB = bt.xmm in
  let memA = bt.mem in
  let scrA = bt.scr in
  let grow g = (g * n) lsl 3 in
  let xrow k = (k * n) lsl 3 in
  let ops = i.Instr.operands in
  let nops = Array.length ops in
  let dst = ops.(nops - 1) in
  (* The lane loop shared by every non-fast-path template.  On a fault
     the body raises; {!exec} parks the lane at [bt.li] (compacting the
     live set without advancing the cursor) and re-enters the closure,
     which resumes the loop on the swapped-in lane. *)
  let lanes (body : int -> unit) : unit -> unit =
   fun () ->
    while bt.li < bt.n_live do
      body bt.live.(bt.li);
      bt.li <- bt.li + 1
    done
  in
  (* A fault known at compile time still fires per lane in operand order
     at run time. *)
  let raise_all msg = lanes (fun _ -> raise (Fault (Semantics.Sigill msg))) in
  let bad_dst_after (pre : (int -> unit) list) msg =
    lanes (fun lane ->
        List.iter (fun f -> f lane) pre;
        raise (Fault (Semantics.Sigill msg)))
  in
  (* ----- operand resolution (compile-time); readers take the lane ----- *)
  let eff (mm : Operand.mem) : int -> int64 =
    let d = Int64.of_int mm.Operand.disp in
    match mm.Operand.base, mm.Operand.index with
    | None, None -> fun _ -> d
    | Some b, None ->
      let ro = grow (gi b) in
      fun lane -> Int64.add (Bytes.get_int64_le gpB (ro + (lane lsl 3))) d
    | None, Some (r, s) ->
      let ro = grow (gi r) and sc = Int64.of_int s in
      fun lane ->
        Int64.add (Int64.mul (Bytes.get_int64_le gpB (ro + (lane lsl 3))) sc) d
    | Some b, Some (r, s) ->
      let bo = grow (gi b) and ro = grow (gi r) and sc = Int64.of_int s in
      fun lane ->
        Int64.add
          (Int64.add
             (Bytes.get_int64_le gpB (bo + (lane lsl 3)))
             (Int64.mul (Bytes.get_int64_le gpB (ro + (lane lsl 3))) sc))
          d
  in
  let read_int w (o : Operand.t) : int -> int64 =
    match o with
    | Operand.Gp r ->
      let ro = grow (gi r) in
      (match w with
       | Reg.Q -> fun lane -> Bytes.get_int64_le gpB (ro + (lane lsl 3))
       | Reg.L ->
         fun lane ->
           Int64.logand (Bytes.get_int64_le gpB (ro + (lane lsl 3))) lo32)
    | Operand.Imm v ->
      let v = match w with Reg.Q -> v | Reg.L -> Int64.logand v lo32 in
      fun _ -> v
    | Operand.Mem mm ->
      let ea = eff mm and nb = Semantics.width_bytes w in
      fun lane -> Memory.read_exn memA.(lane) (ea lane) nb
    | Operand.Xmm _ ->
      fun _ -> raise (Fault (Semantics.Sigill "xmm operand in integer context"))
  in
  let write_int w (o : Operand.t) : int -> int64 -> unit =
    match o with
    | Operand.Gp r ->
      let ro = grow (gi r) in
      (match w with
       | Reg.Q -> fun lane v -> Bytes.set_int64_le gpB (ro + (lane lsl 3)) v
       | Reg.L ->
         fun lane v ->
           Bytes.set_int64_le gpB (ro + (lane lsl 3)) (Int64.logand v lo32))
    | Operand.Mem mm ->
      let ea = eff mm and nb = Semantics.width_bytes w in
      fun lane v -> Memory.write_exn memA.(lane) (ea lane) nb v
    | Operand.Imm _ | Operand.Xmm _ ->
      fun _ _ -> raise (Fault (Semantics.Sigill "bad integer destination"))
  in
  let read_q (o : Operand.t) : int -> int64 =
    match o with
    | Operand.Xmm r ->
      let ro = xrow (xi r) in
      fun lane -> Bytes.get_int64_le xmmB (ro + (lane lsl 3))
    | Operand.Mem mm ->
      let ea = eff mm in
      fun lane -> Memory.read_exn memA.(lane) (ea lane) 8
    | Operand.Gp r ->
      let ro = grow (gi r) in
      fun lane -> Bytes.get_int64_le gpB (ro + (lane lsl 3))
    | Operand.Imm _ ->
      fun _ -> raise (Fault (Semantics.Sigill "immediate in xmm context"))
  in
  let read_d (o : Operand.t) : int -> int64 =
    match o with
    | Operand.Xmm r ->
      let ro = xrow (xi r) in
      fun lane -> Int64.logand (Bytes.get_int64_le xmmB (ro + (lane lsl 3))) lo32
    | Operand.Mem mm ->
      let ea = eff mm in
      fun lane -> Memory.read_exn memA.(lane) (ea lane) 4
    | Operand.Gp r ->
      let ro = grow (gi r) in
      fun lane -> Int64.logand (Bytes.get_int64_le gpB (ro + (lane lsl 3))) lo32
    | Operand.Imm _ ->
      fun _ -> raise (Fault (Semantics.Sigill "immediate in xmm context"))
  in
  let read_f64 o =
    let r = read_q o in
    fun lane -> Int64.float_of_bits (r lane)
  in
  let read_f32 o =
    let r = read_d o in
    fun lane -> Int32.float_of_bits (Int64.to_int32 (r lane))
  in
  let read_x128 ~aligned (o : Operand.t) : int -> int64 * int64 =
    match o with
    | Operand.Xmm r ->
      let ro = xrow (xi r) and ro1 = xrow (xi r + 1) in
      fun lane ->
        let o = lane lsl 3 in
        (Bytes.get_int64_le xmmB (ro + o), Bytes.get_int64_le xmmB (ro1 + o))
    | Operand.Mem mm ->
      let ea = eff mm in
      fun lane -> Memory.read128_exn ~aligned memA.(lane) (ea lane)
    | Operand.Gp _ | Operand.Imm _ ->
      fun _ -> raise (Fault (Semantics.Sigill "bad 128-bit source"))
  in
  let set_f32_lane ro lane v =
    let bits32 = Int64.of_int32 (Int32.bits_of_float v) in
    let o = ro + (lane lsl 3) in
    Bytes.set_int64_le xmmB o
      (Int64.logor
         (Int64.logand (Bytes.get_int64_le xmmB o) hi32_mask)
         (Int64.logand bits32 lo32))
  in
  let get_f32_lane ro lane =
    Int32.float_of_bits (Int64.to_int32 (Bytes.get_int64_le xmmB (ro + (lane lsl 3))))
  in
  (* ----- shared instruction templates ----- *)
  let scalar_f64 f =
    let rx = read_f64 ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let dro = xrow (xi d) in
      (match ops.(0) with
       | Operand.Xmm s ->
         (* register-register scalar FP: the hot arm; nothing in the
            loop body can fault, so it runs as a straight-line sweep *)
         let sro = xrow (xi s) in
         fun () ->
           let live = bt.live in
           for li = bt.li to bt.n_live - 1 do
             let o = live.(li) lsl 3 in
             let x = Int64.float_of_bits (Bytes.get_int64_le xmmB (sro + o)) in
             let old = Int64.float_of_bits (Bytes.get_int64_le xmmB (dro + o)) in
             Bytes.set_int64_le xmmB (dro + o) (Int64.bits_of_float (f old x))
           done;
           bt.li <- bt.n_live
       | _ ->
         lanes (fun lane ->
             let x = rx lane in
             let o = dro + (lane lsl 3) in
             let old = Int64.float_of_bits (Bytes.get_int64_le xmmB o) in
             Bytes.set_int64_le xmmB o (Int64.bits_of_float (f old x))))
    | _ -> bad_dst_after [ (fun lane -> ignore (rx lane)) ] "expected xmm destination"
  in
  let scalar_f32 f =
    let rx = read_f32 ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let dro = xrow (xi d) in
      lanes (fun lane ->
          let x = rx lane in
          set_f32_lane dro lane (f (get_f32_lane dro lane) x))
    | _ -> bad_dst_after [ (fun lane -> ignore (rx lane)) ] "expected xmm destination"
  in
  let packed_bitop f =
    let rs = read_x128 ~aligned:false ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
      lanes (fun lane ->
          let slo, shi = rs lane in
          let o = lane lsl 3 in
          Bytes.set_int64_le xmmB (dro + o) (f (Bytes.get_int64_le xmmB (dro + o)) slo);
          Bytes.set_int64_le xmmB (dro1 + o)
            (f (Bytes.get_int64_le xmmB (dro1 + o)) shi))
    | _ -> bad_dst_after [ (fun lane -> ignore (rs lane)) ] "expected xmm destination"
  in
  let packed_f32 f =
    let rs = read_x128 ~aligned:false ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
      lanes (fun lane ->
          let s = rs lane in
          let o = lane lsl 3 in
          let lo, hi =
            Semantics.map_lanes4_f32 f
              (Bytes.get_int64_le xmmB (dro + o), Bytes.get_int64_le xmmB (dro1 + o))
              s
          in
          Bytes.set_int64_le xmmB (dro + o) lo;
          Bytes.set_int64_le xmmB (dro1 + o) hi)
    | _ -> bad_dst_after [ (fun lane -> ignore (rs lane)) ] "expected xmm destination"
  in
  let packed_f64 f =
    let rs = read_x128 ~aligned:false ops.(0) in
    match dst with
    | Operand.Xmm d ->
      let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
      lanes (fun lane ->
          let s = rs lane in
          let o = lane lsl 3 in
          let lo, hi =
            Semantics.map_lanes2_f64 f
              (Bytes.get_int64_le xmmB (dro + o), Bytes.get_int64_le xmmB (dro1 + o))
              s
          in
          Bytes.set_int64_le xmmB (dro + o) lo;
          Bytes.set_int64_le xmmB (dro1 + o) hi)
    | _ -> bad_dst_after [ (fun lane -> ignore (rs lane)) ] "expected xmm destination"
  in
  let avx3_f64 f =
    let rx2 = read_f64 ops.(0) and rx1 = read_f64 ops.(1) in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s1 ->
      let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
      let s1ro1 = xrow (xi s1 + 1) in
      lanes (fun lane ->
          let x2 = rx2 lane in
          let x1 = rx1 lane in
          let o = lane lsl 3 in
          let hi1 = Bytes.get_int64_le xmmB (s1ro1 + o) in
          Bytes.set_int64_le xmmB (dro + o) (Int64.bits_of_float (f x1 x2));
          Bytes.set_int64_le xmmB (dro1 + o) hi1)
    | _ ->
      bad_dst_after
        [ (fun lane -> ignore (rx2 lane)); (fun lane -> ignore (rx1 lane)) ]
        "expected xmm destination"
  in
  let avx3_f32 f =
    let rx2 = read_f32 ops.(0) and rx1 = read_f32 ops.(1) in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s1 ->
      let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
      let s1ro = xrow (xi s1) and s1ro1 = xrow (xi s1 + 1) in
      lanes (fun lane ->
          let x2 = rx2 lane in
          let x1 = rx1 lane in
          let o = lane lsl 3 in
          let lo1 = Bytes.get_int64_le xmmB (s1ro + o) in
          let hi1 = Bytes.get_int64_le xmmB (s1ro1 + o) in
          let res = Semantics.dword_of (Fp32.round (f x1 x2)) in
          Bytes.set_int64_le xmmB (dro + o) (Int64.logor (Int64.logand lo1 hi32_mask) res);
          Bytes.set_int64_le xmmB (dro1 + o) hi1)
    | _ ->
      bad_dst_after
        [ (fun lane -> ignore (rx2 lane)); (fun lane -> ignore (rx1 lane)) ]
        "expected xmm destination"
  in
  let avx3_packed128 f =
    let rs2 = read_x128 ~aligned:false ops.(0) in
    let rs1 = read_x128 ~aligned:false ops.(1) in
    match dst with
    | Operand.Xmm d ->
      let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
      lanes (fun lane ->
          let s2 = rs2 lane in
          let s1 = rs1 lane in
          let lo, hi = f s1 s2 in
          let o = lane lsl 3 in
          Bytes.set_int64_le xmmB (dro + o) lo;
          Bytes.set_int64_le xmmB (dro1 + o) hi)
    | _ ->
      bad_dst_after
        [ (fun lane -> ignore (rs2 lane)); (fun lane -> ignore (rs1 lane)) ]
        "expected xmm destination"
  in
  let fma_sd () =
    let rx3 = read_f64 ops.(0) in
    let fma = Semantics.fma i.Instr.op in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s2 ->
      let dro = xrow (xi d) and s2ro = xrow (xi s2) in
      lanes (fun lane ->
          let x3 = rx3 lane in
          let o = lane lsl 3 in
          let x2 = Int64.float_of_bits (Bytes.get_int64_le xmmB (s2ro + o)) in
          let x1 = Int64.float_of_bits (Bytes.get_int64_le xmmB (dro + o)) in
          Bytes.set_int64_le xmmB (dro + o) (Int64.bits_of_float (fma x1 x2 x3)))
    | _ -> bad_dst_after [ (fun lane -> ignore (rx3 lane)) ] "expected xmm destination"
  in
  let fma_ss () =
    let rx3 = read_f32 ops.(0) in
    let fma = Semantics.fma i.Instr.op in
    match dst, ops.(1) with
    | Operand.Xmm d, Operand.Xmm s2 ->
      let dro = xrow (xi d) and s2ro = xrow (xi s2) in
      lanes (fun lane ->
          let x3 = rx3 lane in
          let x2 = get_f32_lane s2ro lane in
          let x1 = get_f32_lane dro lane in
          set_f32_lane dro lane (Fp32.round (fma x1 x2 x3)))
    | _ -> bad_dst_after [ (fun lane -> ignore (rx3 lane)) ] "expected xmm destination"
  in
  (* GP two-operand arithmetic: read dst, read src, flags, write —
     exactly the interpreter's order.  Flags live on the lane's scratch
     machine (shared record), so {!Semantics}'s flag helpers apply. *)
  let gp_arith w combine =
    let ra = read_int w dst and rb = read_int w ops.(0) in
    let wr = write_int w dst in
    lanes (fun lane ->
        let a = ra lane in
        let b = rb lane in
        wr lane (combine scrA.(lane) a b))
  in
  let fallback () = generic_closure bt i in
  match i.Instr.op with
  (* ----- GP ----- *)
  | Opcode.Mov w ->
    let rv = read_int w ops.(0) and wr = write_int w dst in
    lanes (fun lane -> wr lane (rv lane))
  | Opcode.Movabs ->
    (match ops.(0), dst with
     | Operand.Imm v, Operand.Gp d ->
       (* hot in FP kernels (constant loads go movabs+movq) *)
       let dro = grow (gi d) in
       fun () ->
         let live = bt.live in
         for li = bt.li to bt.n_live - 1 do
           Bytes.set_int64_le gpB (dro + (live.(li) lsl 3)) v
         done;
         bt.li <- bt.n_live
     | Operand.Imm v, _ ->
       let wr = write_int Reg.Q dst in
       lanes (fun lane -> wr lane v)
     | _ -> raise_all "expected immediate")
  | Opcode.Lea w ->
    (match ops.(0) with
     | Operand.Mem mm ->
       let ea = eff mm and wr = write_int w dst in
       lanes (fun lane -> wr lane (ea lane))
     | _ -> raise_all "lea needs a memory source")
  | Opcode.Add w ->
    gp_arith w (fun m a b ->
        let r = Int64.add a b in
        Semantics.set_add_flags m w a b r;
        Semantics.trunc w r)
  | Opcode.Sub w ->
    gp_arith w (fun m a b ->
        let r = Int64.sub a b in
        Semantics.set_sub_flags m w a b r;
        Semantics.trunc w r)
  | Opcode.Imul w ->
    gp_arith w (fun m a b ->
        let r = Int64.mul (Semantics.signed w a) (Semantics.signed w b) in
        Semantics.set_logic_flags m w r;
        Semantics.trunc w r)
  | Opcode.And w ->
    gp_arith w (fun m a b ->
        let r = Int64.logand a b in
        Semantics.set_logic_flags m w r;
        r)
  | Opcode.Or w ->
    gp_arith w (fun m a b ->
        let r = Int64.logor a b in
        Semantics.set_logic_flags m w r;
        r)
  | Opcode.Xor w ->
    gp_arith w (fun m a b ->
        let r = Int64.logxor a b in
        Semantics.set_logic_flags m w r;
        r)
  | Opcode.Not w ->
    let ra = read_int w dst and wr = write_int w dst in
    lanes (fun lane -> wr lane (Semantics.trunc w (Int64.lognot (ra lane))))
  | Opcode.Neg w ->
    let ra = read_int w dst and wr = write_int w dst in
    lanes (fun lane ->
        let a = ra lane in
        let r = Int64.neg (Semantics.signed w a) in
        Semantics.set_sub_flags scrA.(lane) w 0L a r;
        wr lane (Semantics.trunc w r))
  | Opcode.Inc w ->
    let ra = read_int w dst and wr = write_int w dst in
    lanes (fun lane ->
        let a = ra lane in
        let r = Int64.add a 1L in
        let flags = scrA.(lane).Machine.flags in
        let saved_cf = flags.Machine.cf in
        Semantics.set_add_flags scrA.(lane) w a 1L r;
        flags.Machine.cf <- saved_cf;
        wr lane (Semantics.trunc w r))
  | Opcode.Dec w ->
    let ra = read_int w dst and wr = write_int w dst in
    lanes (fun lane ->
        let a = ra lane in
        let r = Int64.sub a 1L in
        let flags = scrA.(lane).Machine.flags in
        let saved_cf = flags.Machine.cf in
        Semantics.set_sub_flags scrA.(lane) w a 1L r;
        flags.Machine.cf <- saved_cf;
        wr lane (Semantics.trunc w r))
  | Opcode.Shl w | Opcode.Shr w | Opcode.Sar w ->
    (match ops.(0) with
     | Operand.Imm c ->
       let ra = read_int w dst and wr = write_int w dst in
       let bits = match w with Reg.Q -> 64 | Reg.L -> 32 in
       let c = Int64.to_int c land (if bits = 64 then 63 else 31) in
       if c = 0 then lanes (fun lane -> wr lane (Semantics.trunc w (ra lane)))
       else
         let shift =
           match i.Instr.op with
           | Opcode.Shl _ -> fun a -> Int64.shift_left a c
           | Opcode.Shr _ ->
             fun a -> Int64.shift_right_logical (Semantics.trunc w a) c
           | _ -> fun a -> Int64.shift_right (Semantics.signed w a) c
         in
         lanes (fun lane ->
             let r = shift (ra lane) in
             Semantics.set_logic_flags scrA.(lane) w r;
             wr lane (Semantics.trunc w r))
     | _ -> raise_all "expected immediate")
  | Opcode.Cmp w ->
    let ra = read_int w dst and rb = read_int w ops.(0) in
    lanes (fun lane ->
        let a = ra lane in
        let b = rb lane in
        Semantics.set_sub_flags scrA.(lane) w a b (Int64.sub a b))
  | Opcode.Test w ->
    let ra = read_int w dst and rb = read_int w ops.(0) in
    lanes (fun lane ->
        let a = ra lane in
        let b = rb lane in
        Semantics.set_logic_flags scrA.(lane) w (Int64.logand a b))
  | Opcode.Cmov (c, w) ->
    let rv = read_int w ops.(0) and wr = write_int w dst in
    lanes (fun lane ->
        if Semantics.cond_holds scrA.(lane) c then wr lane (rv lane))
  | Opcode.Setcc c ->
    (match dst with
     | Operand.Gp r ->
       let dro = grow (gi r) in
       lanes (fun lane ->
           let bit = if Semantics.cond_holds scrA.(lane) c then 1L else 0L in
           let o = dro + (lane lsl 3) in
           Bytes.set_int64_le gpB o
             (Int64.logor (Int64.logand (Bytes.get_int64_le gpB o) (-256L)) bit))
     | _ -> raise_all "setcc needs a register")
  (* ----- SSE moves ----- *)
  | Opcode.Movss ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sro = xrow (xi s) and dro = xrow (xi d) in
       fun () ->
         let live = bt.live in
         for li = bt.li to bt.n_live - 1 do
           let o = live.(li) lsl 3 in
           let lo_s = Int64.logand (Bytes.get_int64_le xmmB (sro + o)) lo32 in
           Bytes.set_int64_le xmmB (dro + o)
             (Int64.logor
                (Int64.logand (Bytes.get_int64_le xmmB (dro + o)) hi32_mask)
                lo_s)
         done;
         bt.li <- bt.n_live
     | Operand.Mem mm, Operand.Xmm d ->
       let ea = eff mm and dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
       lanes (fun lane ->
           let v = Memory.read_exn memA.(lane) (ea lane) 4 in
           let o = lane lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) v;
           Bytes.set_int64_le xmmB (dro1 + o) 0L)
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sro = xrow (xi s) in
       lanes (fun lane ->
           Memory.write_exn memA.(lane) (ea lane) 4
             (Int64.logand (Bytes.get_int64_le xmmB (sro + (lane lsl 3))) lo32))
     | _ -> raise_all "movss operands")
  | Opcode.Movsd ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sro = xrow (xi s) and dro = xrow (xi d) in
       fun () ->
         let live = bt.live in
         for li = bt.li to bt.n_live - 1 do
           let o = live.(li) lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) (Bytes.get_int64_le xmmB (sro + o))
         done;
         bt.li <- bt.n_live
     | Operand.Mem mm, Operand.Xmm d ->
       let ea = eff mm and dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
       lanes (fun lane ->
           let v = Memory.read_exn memA.(lane) (ea lane) 8 in
           let o = lane lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) v;
           Bytes.set_int64_le xmmB (dro1 + o) 0L)
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sro = xrow (xi s) in
       lanes (fun lane ->
           Memory.write_exn memA.(lane) (ea lane) 8
             (Bytes.get_int64_le xmmB (sro + (lane lsl 3))))
     | _ -> raise_all "movsd operands")
  | Opcode.Movaps | Opcode.Movups | Opcode.Lddqu ->
    let aligned = i.Instr.op = Opcode.Movaps in
    (match ops.(0), dst with
     | (Operand.Xmm _ | Operand.Mem _), Operand.Xmm d ->
       let rv = read_x128 ~aligned ops.(0) in
       let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
       lanes (fun lane ->
           let lo, hi = rv lane in
           let o = lane lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) lo;
           Bytes.set_int64_le xmmB (dro1 + o) hi)
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sro = xrow (xi s) and sro1 = xrow (xi s + 1) in
       lanes (fun lane ->
           let o = lane lsl 3 in
           Memory.write128_exn ~aligned memA.(lane) (ea lane)
             (Bytes.get_int64_le xmmB (sro + o), Bytes.get_int64_le xmmB (sro1 + o)))
     | _ -> raise_all "128-bit move operands")
  | Opcode.Movq ->
    (match ops.(0), dst with
     | Operand.Gp s, Operand.Xmm d ->
       (* hot in FP kernels: constant loads go movabs+movq *)
       let sro = grow (gi s) in
       let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
       fun () ->
         let live = bt.live in
         for li = bt.li to bt.n_live - 1 do
           let o = live.(li) lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) (Bytes.get_int64_le gpB (sro + o));
           Bytes.set_int64_le xmmB (dro1 + o) 0L
         done;
         bt.li <- bt.n_live
     | Operand.Xmm s, Operand.Xmm d ->
       let sro = xrow (xi s) in
       let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
       fun () ->
         let live = bt.live in
         for li = bt.li to bt.n_live - 1 do
           let o = live.(li) lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) (Bytes.get_int64_le xmmB (sro + o));
           Bytes.set_int64_le xmmB (dro1 + o) 0L
         done;
         bt.li <- bt.n_live
     | Operand.Mem _, Operand.Xmm d ->
       let rv = read_q ops.(0) in
       let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
       lanes (fun lane ->
           let v = rv lane in
           let o = lane lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) v;
           Bytes.set_int64_le xmmB (dro1 + o) 0L)
     | Operand.Xmm s, Operand.Gp d ->
       let sro = xrow (xi s) and dro = grow (gi d) in
       fun () ->
         let live = bt.live in
         for li = bt.li to bt.n_live - 1 do
           let o = live.(li) lsl 3 in
           Bytes.set_int64_le gpB (dro + o) (Bytes.get_int64_le xmmB (sro + o))
         done;
         bt.li <- bt.n_live
     | Operand.Xmm s, Operand.Mem mm ->
       let ea = eff mm and sro = xrow (xi s) in
       lanes (fun lane ->
           Memory.write_exn memA.(lane) (ea lane) 8
             (Bytes.get_int64_le xmmB (sro + (lane lsl 3))))
     | _ -> raise_all "movq operands")
  | Opcode.Movd ->
    (match ops.(0), dst with
     | Operand.Gp s, Operand.Xmm d ->
       let sro = grow (gi s) in
       let dro = xrow (xi d) and dro1 = xrow (xi d + 1) in
       lanes (fun lane ->
           let o = lane lsl 3 in
           Bytes.set_int64_le xmmB (dro + o)
             (Int64.logand (Bytes.get_int64_le gpB (sro + o)) lo32);
           Bytes.set_int64_le xmmB (dro1 + o) 0L)
     | Operand.Xmm s, Operand.Gp d ->
       let sro = xrow (xi s) and dro = grow (gi d) in
       lanes (fun lane ->
           let o = lane lsl 3 in
           Bytes.set_int64_le gpB (dro + o)
             (Int64.logand (Bytes.get_int64_le xmmB (sro + o)) lo32))
     | _ -> raise_all "movd operands")
  | Opcode.Movlhps ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sro = xrow (xi s) and dro1 = xrow (xi d + 1) in
       lanes (fun lane ->
           let o = lane lsl 3 in
           Bytes.set_int64_le xmmB (dro1 + o) (Bytes.get_int64_le xmmB (sro + o)))
     | _ -> raise_all "expected xmm destination")
  | Opcode.Movhlps ->
    (match ops.(0), dst with
     | Operand.Xmm s, Operand.Xmm d ->
       let sro1 = xrow (xi s + 1) and dro = xrow (xi d) in
       lanes (fun lane ->
           let o = lane lsl 3 in
           Bytes.set_int64_le xmmB (dro + o) (Bytes.get_int64_le xmmB (sro1 + o)))
     | _ -> raise_all "expected xmm destination")
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
       let dro = xrow (xi d) in
       lanes (fun lane ->
           let s = rs lane in
           Semantics.set_fp_compare_flags scrA.(lane)
             (Int64.float_of_bits (Bytes.get_int64_le xmmB (dro + (lane lsl 3))))
             s)
     | _ -> bad_dst_after [ (fun lane -> ignore (rs lane)) ] "expected xmm destination")
  | Opcode.Ucomiss | Opcode.Comiss ->
    let rs = read_f32 ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dro = xrow (xi d) in
       lanes (fun lane ->
           let s = rs lane in
           Semantics.set_fp_compare_flags scrA.(lane) (get_f32_lane dro lane) s)
     | _ -> bad_dst_after [ (fun lane -> ignore (rs lane)) ] "expected xmm destination")
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
       let dro = xrow (xi d) in
       lanes (fun lane ->
           Bytes.set_int64_le xmmB (dro + (lane lsl 3))
             (Int64.bits_of_float (rx lane)))
     | _ -> bad_dst_after [ (fun lane -> ignore (rx lane)) ] "expected xmm destination")
  | Opcode.Cvtsd2ss ->
    let rx = read_f64 ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dro = xrow (xi d) in
       lanes (fun lane -> set_f32_lane dro lane (Fp32.round (rx lane)))
     | _ -> bad_dst_after [ (fun lane -> ignore (rx lane)) ] "expected xmm destination")
  | Opcode.Cvtsi2sd w ->
    let rv = read_int w ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dro = xrow (xi d) in
       lanes (fun lane ->
           Bytes.set_int64_le xmmB (dro + (lane lsl 3))
             (Int64.bits_of_float (Int64.to_float (Semantics.signed w (rv lane)))))
     | _ -> bad_dst_after [ (fun lane -> ignore (rv lane)) ] "expected xmm destination")
  | Opcode.Cvtsi2ss w ->
    let rv = read_int w ops.(0) in
    (match dst with
     | Operand.Xmm d ->
       let dro = xrow (xi d) in
       lanes (fun lane ->
           set_f32_lane dro lane
             (Fp32.round (Int64.to_float (Semantics.signed w (rv lane)))))
     | _ -> bad_dst_after [ (fun lane -> ignore (rv lane)) ] "expected xmm destination")
  | Opcode.Cvttsd2si w ->
    let rx = read_f64 ops.(0) and wr = write_int w dst in
    let conv = match w with Reg.Q -> Semantics.f2i64 | Reg.L -> Semantics.f2i32 in
    lanes (fun lane -> wr lane (conv (Float.trunc (rx lane))))
  | Opcode.Cvttss2si w ->
    let rx = read_f32 ops.(0) and wr = write_int w dst in
    let conv = match w with Reg.Q -> Semantics.f2i64 | Reg.L -> Semantics.f2i32 in
    lanes (fun lane -> wr lane (conv (Float.trunc (rx lane))))
  | Opcode.Cvtsd2si w ->
    let rx = read_f64 ops.(0) and wr = write_int w dst in
    let conv = match w with Reg.Q -> Semantics.f2i64 | Reg.L -> Semantics.f2i32 in
    lanes (fun lane -> wr lane (conv (Semantics.rint_even (rx lane))))
  | Opcode.Roundsd ->
    (match ops.(0) with
     | Operand.Imm mode ->
       let rx = read_f64 ops.(1) in
       let round = Semantics.rounding mode in
       (match dst with
        | Operand.Xmm d ->
          let dro = xrow (xi d) in
          lanes (fun lane ->
              Bytes.set_int64_le xmmB (dro + (lane lsl 3))
                (Int64.bits_of_float (round (rx lane))))
        | _ ->
          bad_dst_after [ (fun lane -> ignore (rx lane)) ] "expected xmm destination")
     | _ -> raise_all "expected immediate")
  | Opcode.Roundss ->
    (match ops.(0) with
     | Operand.Imm mode ->
       let rx = read_f32 ops.(1) in
       let round = Semantics.rounding mode in
       (match dst with
        | Operand.Xmm d ->
          let dro = xrow (xi d) in
          lanes (fun lane -> set_f32_lane dro lane (Fp32.round (round (rx lane))))
        | _ ->
          bad_dst_after [ (fun lane -> ignore (rx lane)) ] "expected xmm destination")
     | _ -> raise_all "expected immediate")
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
     FP kernels; they run through the reference interpreter, which keeps
     them bit-identical by construction. *)
  | Opcode.Shufps | Opcode.Pshufd | Opcode.Pshuflw | Opcode.Punpckldq
  | Opcode.Punpcklqdq | Opcode.Unpcklps | Opcode.Unpcklpd | Opcode.Paddd
  | Opcode.Psubd | Opcode.Pslld | Opcode.Psrld | Opcode.Psllq | Opcode.Psrlq
  | Opcode.Vpshuflw ->
    fallback ()

let instr_closure (bt : batch) (i : Instr.t) : unit -> unit =
  if Array.length i.Instr.operands = 0 then generic_closure bt i
  else specialize bt i

let compile (bt : batch) (p : Program.t) : t =
  let active =
    Array.of_seq
      (Seq.filter_map
         (function
           | Program.Unused -> None
           | Program.Active i -> Some i)
         (Array.to_seq p.Program.slots))
  in
  let n = Array.length active in
  let steps = Array.make n (fun () -> ()) in
  let lat_prefix = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    steps.(k) <- instr_closure bt active.(k);
    lat_prefix.(k + 1) <- lat_prefix.(k) + Latency.of_instr active.(k)
  done;
  { b = bt; steps; lat_prefix }

let length t = Array.length t.steps

(* ----- execution ----- *)

let exec ?on_fault (t : t) : bool =
  let bt = t.b in
  let nsteps = Array.length t.steps in
  let aborted = ref false in
  (try
     let k = ref 0 in
     while !k < nsteps && bt.n_live > 0 do
       bt.cur_step <- !k;
       bt.cur_lat <- t.lat_prefix.(!k + 1);
       bt.li <- 0;
       let step = t.steps.(!k) in
       (* Park-and-resume: a raise inside [step] latches the lane at the
          cursor, compacts it out of the live set (without advancing the
          cursor — the swapped-in lane takes its place), and re-enters
          the closure, which picks its internal loop back up. *)
       let rec go () =
         try step () with
         | Fault f -> handle f
         | Memory.Fault_exn mf ->
           handle (Semantics.Segv (Memory.fault_to_string mf))
       and handle f =
         let lane = bt.live.(bt.li) in
         bt.fault.(lane) <- Some f;
         bt.executed.(lane) <- bt.cur_step + 1;
         bt.cycles.(lane) <- bt.cur_lat;
         bt.n_live <- bt.n_live - 1;
         bt.live.(bt.li) <- bt.live.(bt.n_live);
         bt.live.(bt.n_live) <- lane;
         (match on_fault with
          | Some cb -> if cb ~lane f then raise Abort
          | None -> ());
         go ()
       in
       go ();
       incr k
     done
   with Abort ->
     aborted := true;
     (* Live lanes stopped mid-step; lanes before the cursor completed
        the current instruction, lanes at or past it did not. *)
     for li = 0 to bt.n_live - 1 do
       let lane = bt.live.(li) in
       if li < bt.li then begin
         bt.executed.(lane) <- bt.cur_step + 1;
         bt.cycles.(lane) <- bt.cur_lat
       end
       else begin
         bt.executed.(lane) <- bt.cur_step;
         bt.cycles.(lane) <- t.lat_prefix.(bt.cur_step)
       end
     done);
  if not !aborted then begin
    let full = t.lat_prefix.(nsteps) in
    for li = 0 to bt.n_live - 1 do
      let lane = bt.live.(li) in
      bt.executed.(lane) <- nsteps;
      bt.cycles.(lane) <- full
    done
  end;
  if Exec.Counters.is_enabled () then
    for lane = 0 to bt.n - 1 do
      Exec.Counters.record ~run_cycles:bt.cycles.(lane)
        ~run_instrs:bt.executed.(lane)
        ~faulted:(bt.fault.(lane) <> None)
    done;
  !aborted

let run_one (t : t) (m : Machine.t) =
  let b = t.b in
  if b.n <> 1 then invalid_arg "Batched.run_one: needs a one-lane batch";
  let scr = b.scr.(0) in
  let copy_regs ~(src : Machine.t) ~(dst : Machine.t) =
    Bytes.blit src.Machine.regs 0 dst.Machine.regs 0 Machine.regs_size;
    let f = src.Machine.flags and g = dst.Machine.flags in
    g.Machine.cf <- f.Machine.cf;
    g.Machine.zf <- f.Machine.zf;
    g.Machine.sf <- f.Machine.sf;
    g.Machine.o_f <- f.Machine.o_f;
    g.Machine.pf <- f.Machine.pf
  in
  copy_regs ~src:m ~dst:scr;
  sync_from_scratch b 0;
  Memory.blit_from ~src:m.Machine.mem ~dst:scr.Machine.mem;
  b.live.(0) <- 0;
  b.n_live <- 1;
  b.fault.(0) <- None;
  let (_aborted : bool) = exec t in
  sync_to_scratch b 0;
  copy_regs ~src:scr ~dst:m;
  Memory.blit_from ~src:scr.Machine.mem ~dst:m.Machine.mem;
  result b ~lane:0

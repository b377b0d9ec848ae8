(* Native engine: candidates are encoded with X86.Encoder into a
   trampoline and executed as real machine code inside a guarded worker
   child (native_stubs.c).

   Trampoline ABI.  A fixed state page at STATE_ADDR (child-private, all
   references abs32) carries the lane's inputs, scratch slots for the
   memory guard, the fault record, the host's callee-saved registers,
   and the outputs.  The prologue loads flags (sahf + the add-al
   overflow trick), all 16 xmm registers, and all 16 GPs — the
   candidate's rsp is plain data, signals run on the child's altstack —
   and the epilogue spills everything back.  Every memory-accessing
   instruction is preceded by a software guard that computes the
   effective address with lea, checks alignment and bounds with the same
   unsigned comparisons as Memory.offset, and on failure jumps to a stub
   recording the instruction index, fault kind and address, so faulting
   lanes report exactly what the interpreter would.  Hardware signals
   (which the guards should make unreachable) are caught by the worker
   and surfaced as a distinct divergent fault.

   Code is position-independent: data references are abs32, branches are
   rel32 and internal, so the worker executes straight from its RX view
   of the shared pages wherever they landed. *)

type handle

external nat_probe : unit -> bool = "stoke_native_probe"
external nat_cpu_flags : unit -> int = "stoke_native_cpu_flags"
external nat_create : int -> int -> int64 -> handle option = "stoke_native_create"
external nat_write_code : handle -> Bytes.t -> int -> unit = "stoke_native_write_code"
external nat_write_lanes : handle -> Bytes.t -> unit = "stoke_native_write_lanes"
external nat_write_arena : handle -> int -> Bytes.t -> unit = "stoke_native_write_arena"
external nat_request : handle -> int -> int -> int -> int = "stoke_native_request"
external nat_read_results : handle -> Bytes.t -> unit = "stoke_native_read_results"
external nat_read_mem : handle -> int -> Bytes.t -> unit = "stoke_native_read_mem"
external nat_respawns : handle -> int = "stoke_native_respawns"

(* ----- layout constants (mirrored in native_stubs.c) ----- *)

let state_addr = 0xF0000
let st_gp_in = state_addr
let st_xmm_in = state_addr + 0x080
let st_flags_in = state_addr + 0x180
let st_scr_rax = state_addr + 0x188
let st_scr_ea = state_addr + 0x190
let st_scr_flags = state_addr + 0x198
let st_f_code = state_addr + 0x1A0
let st_f_ea = state_addr + 0x1A8
let st_host_rsp = state_addr + 0x1B0
let st_host_save = state_addr + 0x1B8
let st_gp_out = state_addr + 0x200
let st_xmm_out = state_addr + 0x280
let st_flags_out = state_addr + 0x380

let lane_sz = 392
let res_sz = 416
let code_max = 256 * 1024

(* request flag bits *)
let rq_uniform = 1
let rq_has_stores = 2
let rq_want_mem = 4

(* ----- availability ----- *)

let available_cache = ref None

let available () =
  match !available_cache with
  | Some b -> b
  | None ->
    let b = try nat_probe () with _ -> false in
    available_cache := Some b;
    b

(* cpu feature bits: 1=avx 2=fma 4=sse4.1 8=sse3 *)
let cpu_flags = lazy (nat_cpu_flags ())

(* ----- instruction classification -----

   An instruction is native-safe when its hardware behaviour is
   bit-identical to Semantics.step on every input: same outputs, same
   flags, same fault kind and address.  The exclusions below are the
   known divergences; the exhaustive differential test in the test suite
   validates this predicate instance by instance (a form wrongly marked
   safe fails the test, one wrongly marked unsafe only costs a
   fallback). *)

type acc = {
  sz : int;  (** access width in bytes: 4, 8 or 16 *)
  aligned : bool;  (** hardware requires 16-byte alignment *)
  store : bool;
  store_xmm : Reg.xmm option;  (** source of a 16-byte store, for the
                                   partial-store fault stub *)
  mem : Operand.mem;
}

let wsz = function
  | Reg.L -> 4
  | Reg.Q -> 8

(* [None] = not native-safe; [Some `No_mem] = safe, no memory access;
   [Some (`Mem a)] = safe with one guarded access; [Some (`Fixup f)] =
   safe with no memory access provided the (register-only, non-faulting)
   instruction [f] runs immediately after to repair the flags. *)
let analyze cpu (i : Instr.t) :
    [ `No_mem | `Mem of acc | `Fixup of Instr.t ] option =
  let ops = i.Instr.operands in
  let n = Array.length ops in
  let has_mem =
    Array.exists (function Operand.Mem _ -> true | _ -> false) ops
  in
  let reg_only = if has_mem then None else Some `No_mem in
  let mk ?(aligned = false) ?(store = false) ?store_xmm mem sz =
    Some (`Mem { sz; aligned; store; store_xmm; mem })
  in
  let need bit v = if cpu land bit <> 0 then v else None in
  (* [src op; dst Xmm] with an optional memory source of width [sz] *)
  let sse2 sz =
    if n <> 2 then None
    else
      match ops.(0), ops.(1) with
      | Operand.Xmm _, Operand.Xmm _ -> Some `No_mem
      | Operand.Mem m, Operand.Xmm _ -> mk m sz
      | _ -> None
  in
  (* AVX 3-operand: [src2; src1 Xmm; dst Xmm], memory only in src2 *)
  let avx3 sz =
    if n <> 3 then None
    else
      match ops.(0), ops.(1), ops.(2) with
      | Operand.Xmm _, Operand.Xmm _, Operand.Xmm _ -> Some `No_mem
      | Operand.Mem m, Operand.Xmm _, Operand.Xmm _ -> mk m sz
      | _ -> None
  in
  match i.Instr.op with
  (* ----- general purpose ----- *)
  | Opcode.Mov w ->
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | (Operand.Gp _ | Operand.Imm _), Operand.Gp _ -> Some `No_mem
       | Operand.Mem m, Operand.Gp _ -> mk m (wsz w)
       | (Operand.Gp _ | Operand.Imm _), Operand.Mem m ->
         mk m (wsz w) ~store:true
       | _ -> None)
  | Opcode.Movabs ->
    (match ops with
     | [| Operand.Imm _; Operand.Gp _ |] -> Some `No_mem
     | _ -> None)
  | Opcode.Lea _ ->
    (* computes the address but performs no access: no guard *)
    (match ops with
     | [| Operand.Mem _; Operand.Gp _ |] -> Some `No_mem
     | _ -> None)
  | Opcode.Add w | Opcode.Sub w | Opcode.And w | Opcode.Or w | Opcode.Xor w ->
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | (Operand.Gp _ | Operand.Imm _), Operand.Gp _ -> Some `No_mem
       | Operand.Mem m, Operand.Gp _ -> mk m (wsz w)
       | (Operand.Gp _ | Operand.Imm _), Operand.Mem m ->
         (* read-modify-write: one guard covers both accesses *)
         mk m (wsz w) ~store:true
       | _ -> None)
  | Opcode.Cmp w | Opcode.Test w ->
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | (Operand.Gp _ | Operand.Imm _), Operand.Gp _ -> Some `No_mem
       | Operand.Mem m, Operand.Gp _ | (Operand.Gp _ | Operand.Imm _), Operand.Mem m
         ->
         mk m (wsz w)
       | _ -> None)
  | Opcode.Imul _ ->
    (* hardware CF/OF differ from the interpreter's logic flags *)
    None
  | Opcode.Not w | Opcode.Neg w | Opcode.Inc w | Opcode.Dec w ->
    (match ops with
     | [| Operand.Gp _ |] -> Some `No_mem
     | [| Operand.Mem m |] -> mk m (wsz w) ~store:true
     | _ -> None)
  | Opcode.Shl w | Opcode.Shr w | Opcode.Sar w ->
    (match ops with
     | [| Operand.Imm c; d |] ->
       let bits = match w with Reg.Q -> 63 | Reg.L -> 31 in
       if Int64.to_int c land bits = 0 then
         (* count 0 leaves flags alone on both sides *)
         (match d with
          | Operand.Gp _ -> Some `No_mem
          | Operand.Mem m -> mk m (wsz w) ~store:true
          | _ -> None)
       else
         (* a real shift sets hardware CF (last bit out) and OF in ways
            the interpreter does not model — it derives every flag from
            the result, like TEST.  So re-derive: a trailing
            [test dst,dst] rewrites SF/ZF/PF from the result and zeroes
            CF/OF, exactly [set_logic_flags] (the machine model carries
            no AF).  Register destinations only: a fixup after a memory
            shift would need a second guarded access. *)
         (match d with
          | Operand.Gp r ->
            Some
              (`Fixup
                (Instr.make_unchecked (Opcode.Test w)
                   [| Operand.Gp r; Operand.Gp r |]))
          | _ -> None)
     | _ -> None)
  | Opcode.Cmov (_, w) ->
    (* L forms zero-extend the destination even when false; Q memory
       forms perform the load even when false *)
    (match w, ops with
     | Reg.Q, [| Operand.Gp _; Operand.Gp _ |] -> Some `No_mem
     | _ -> None)
  | Opcode.Setcc _ ->
    (match ops with
     | [| Operand.Gp _ |] -> Some `No_mem
     | _ -> None)
  (* ----- SSE data movement ----- *)
  | Opcode.Movss | Opcode.Movsd ->
    let sz = if i.Instr.op = Opcode.Movss then 4 else 8 in
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | Operand.Xmm _, Operand.Xmm _ -> Some `No_mem
       | Operand.Mem m, Operand.Xmm _ -> mk m sz
       | Operand.Xmm _, Operand.Mem m -> mk m sz ~store:true
       | _ -> None)
  | Opcode.Movaps | Opcode.Movups ->
    let aligned = i.Instr.op = Opcode.Movaps in
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | Operand.Xmm _, Operand.Xmm _ -> Some `No_mem
       | Operand.Mem m, Operand.Xmm _ -> mk m 16 ~aligned
       | Operand.Xmm s, Operand.Mem m ->
         mk m 16 ~aligned ~store:true ~store_xmm:s
       | _ -> None)
  | Opcode.Lddqu ->
    (* hardware has no store form; the interpreter's is not encodable *)
    need 8
      (match ops with
       | [| Operand.Xmm _; Operand.Xmm _ |] -> Some `No_mem
       | [| Operand.Mem m; Operand.Xmm _ |] -> mk m 16
       | _ -> None)
  | Opcode.Movq ->
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | (Operand.Xmm _ | Operand.Gp _), (Operand.Xmm _ | Operand.Gp _) ->
         Some `No_mem
       | Operand.Mem m, Operand.Xmm _ -> mk m 8
       | Operand.Xmm _, Operand.Mem m -> mk m 8 ~store:true
       | _ -> None)
  | Opcode.Movd ->
    (* interpreter rejects memory forms with Sigill *)
    (match ops with
     | [| Operand.Gp _; Operand.Xmm _ |] | [| Operand.Xmm _; Operand.Gp _ |] ->
       Some `No_mem
     | _ -> None)
  | Opcode.Movlhps | Opcode.Movhlps -> reg_only
  (* ----- scalar FP ----- *)
  | Opcode.Addsd | Opcode.Subsd | Opcode.Mulsd | Opcode.Divsd
  | Opcode.Sqrtsd | Opcode.Minsd | Opcode.Maxsd | Opcode.Ucomisd
  | Opcode.Comisd ->
    sse2 8
  | Opcode.Addss | Opcode.Subss | Opcode.Mulss | Opcode.Divss
  | Opcode.Sqrtss | Opcode.Ucomiss | Opcode.Comiss ->
    sse2 4
  | Opcode.Minss | Opcode.Maxss ->
    (* the interpreter's f32→f64 round trip quiets signalling NaNs *)
    None
  (* ----- packed: register forms only (legacy SSE memory operands
     require 16-byte alignment the interpreter does not model) ----- *)
  | Opcode.Andps | Opcode.Andpd | Opcode.Andnps | Opcode.Orps | Opcode.Orpd
  | Opcode.Xorps | Opcode.Xorpd | Opcode.Pand | Opcode.Por | Opcode.Pxor
  | Opcode.Paddd | Opcode.Paddq | Opcode.Psubd | Opcode.Psubq
  | Opcode.Addps | Opcode.Addpd | Opcode.Subps | Opcode.Subpd
  | Opcode.Mulps | Opcode.Mulpd | Opcode.Divps | Opcode.Divpd
  | Opcode.Punpckldq | Opcode.Punpcklqdq | Opcode.Unpcklps
  | Opcode.Unpcklpd | Opcode.Shufps | Opcode.Pshufd | Opcode.Pshuflw
  | Opcode.Pslld | Opcode.Psrld | Opcode.Psllq | Opcode.Psrlq ->
    reg_only
  | Opcode.Minps | Opcode.Maxps ->
    (* packed f32 min/max: same SNaN-quieting divergence as Minss *)
    None
  (* ----- converts ----- *)
  | Opcode.Cvtss2sd -> sse2 4
  | Opcode.Cvtsd2ss -> sse2 8
  | Opcode.Cvtsi2sd w ->
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | Operand.Gp _, Operand.Xmm _ -> Some `No_mem
       | Operand.Mem m, Operand.Xmm _ -> mk m (wsz w)
       | _ -> None)
  | Opcode.Cvtsi2ss w ->
    (* Q: int64→f32 through an f64 intermediate double-rounds *)
    (match w, ops with
     | Reg.L, [| Operand.Gp _; Operand.Xmm _ |] -> Some `No_mem
     | Reg.L, [| Operand.Mem m; Operand.Xmm _ |] -> mk m 4
     | _ -> None)
  | Opcode.Cvttsd2si _ | Opcode.Cvtsd2si _ ->
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | Operand.Xmm _, Operand.Gp _ -> Some `No_mem
       | Operand.Mem m, Operand.Gp _ -> mk m 8
       | _ -> None)
  | Opcode.Cvttss2si _ ->
    if n <> 2 then None
    else
      (match ops.(0), ops.(1) with
       | Operand.Xmm _, Operand.Gp _ -> Some `No_mem
       | Operand.Mem m, Operand.Gp _ -> mk m 4
       | _ -> None)
  | Opcode.Roundsd | Opcode.Roundss ->
    (* imm bit 2 selects the MXCSR rounding mode, which the interpreter
       does not model *)
    let sz = if i.Instr.op = Opcode.Roundsd then 8 else 4 in
    need 4
      (match ops with
       | [| Operand.Imm im; src; Operand.Xmm _ |]
         when Int64.to_int im land 4 = 0 ->
         (match src with
          | Operand.Xmm _ -> Some `No_mem
          | Operand.Mem m -> mk m sz
          | _ -> None)
       | _ -> None)
  (* ----- AVX three-operand (no alignment requirement on VEX memory
     operands, matching the interpreter) ----- *)
  | Opcode.Vaddsd | Opcode.Vsubsd | Opcode.Vmulsd | Opcode.Vdivsd
  | Opcode.Vminsd | Opcode.Vmaxsd | Opcode.Vsqrtsd ->
    need 1 (avx3 8)
  | Opcode.Vaddss | Opcode.Vsubss | Opcode.Vmulss | Opcode.Vdivss ->
    need 1 (avx3 4)
  | Opcode.Vminss | Opcode.Vmaxss -> None
  | Opcode.Vaddps | Opcode.Vsubps | Opcode.Vmulps | Opcode.Vaddpd
  | Opcode.Vmulpd | Opcode.Vxorps | Opcode.Vandps | Opcode.Vunpcklps ->
    need 1 (avx3 16)
  | Opcode.Vpshuflw ->
    need 1
      (if n <> 3 then None
       else
         match ops.(0), ops.(1), ops.(2) with
         | Operand.Imm _, Operand.Xmm _, Operand.Xmm _ -> Some `No_mem
         | Operand.Imm _, Operand.Mem m, Operand.Xmm _ -> mk m 16
         | _ -> None)
  | Opcode.Vfmadd132sd | Opcode.Vfmadd213sd | Opcode.Vfmadd231sd
  | Opcode.Vfnmadd213sd | Opcode.Vfnmadd231sd | Opcode.Vfmsub213sd ->
    need 1 (need 2 (avx3 8))
  | Opcode.Vfmadd132ss | Opcode.Vfmadd213ss | Opcode.Vfmadd231ss ->
    (* f32 FMA through Float.fma + Fp32.round double-rounds *)
    None

let native_instr (i : Instr.t) =
  match Encoder.encode_instr i with
  | Error _ -> false
  | Ok _ -> analyze (Lazy.force cpu_flags) i <> None

(* ----- trampoline emitter ----- *)

type asm = {
  abuf : Buffer.t;
  mutable fixups : (int * int) list;  (* rel32 position, label *)
  lbls : (int, int) Hashtbl.t;
  mutable next_lbl : int;
}

let new_asm () =
  { abuf = Buffer.create 2048; fixups = []; lbls = Hashtbl.create 16;
    next_lbl = 0 }

let apos a = Buffer.length a.abuf
let e8 a v = Buffer.add_char a.abuf (Char.chr (v land 0xff))

let e32 a v =
  e8 a v;
  e8 a (v asr 8);
  e8 a (v asr 16);
  e8 a (v asr 24)

let new_label a =
  let l = a.next_lbl in
  a.next_lbl <- l + 1;
  l

let def_label a l = Hashtbl.replace a.lbls l (apos a)

(* mov [abs32], r64 / mov r64, [abs32] *)
let mov_abs a ~stor reg addr =
  e8 a (0x48 lor (if reg >= 8 then 4 else 0));
  e8 a (if stor then 0x89 else 0x8b);
  e8 a (0x04 lor ((reg land 7) lsl 3));
  e8 a 0x25;
  e32 a addr

(* movaps [abs32], xmm / movaps xmm, [abs32] *)
let movaps_abs a ~stor x addr =
  if x >= 8 then e8 a 0x44;
  e8 a 0x0f;
  e8 a (if stor then 0x29 else 0x28);
  e8 a (0x04 lor ((x land 7) lsl 3));
  e8 a 0x25;
  e32 a addr

let lahf_seto a =
  e8 a 0x9f;
  e8 a 0x0f;
  e8 a 0x90;
  e8 a 0xc0

(* add al, 0x7f; sahf — reload flags from rax (al bit 0 = OF, ah = the
   lahf byte); the add sets OF iff al = 1 and sahf overwrites the rest *)
let restore_flags a =
  e8 a 0x04;
  e8 a 0x7f;
  e8 a 0x9e

let cmp_rax a imm =
  e8 a 0x48;
  e8 a 0x3d;
  e32 a imm

(* jcc rel32 to a label *)
let jcc a cc l =
  e8 a 0x0f;
  e8 a (0x80 lor cc);
  a.fixups <- (apos a, l) :: a.fixups;
  e32 a 0

let jmp a l =
  e8 a 0xe9;
  a.fixups <- (apos a, l) :: a.fixups;
  e32 a 0

(* mov qword [abs32], imm32 *)
let mov_abs_imm a addr imm =
  e8 a 0x48;
  e8 a 0xc7;
  e8 a 0x04;
  e8 a 0x25;
  e32 a addr;
  e32 a imm

(* movq [rax], xmm — the partial low-quad store of a 16-byte store whose
   high quad is out of bounds, matching Memory.write128's mutation order *)
let movq_store_rax a x =
  e8 a 0x66;
  if x >= 8 then e8 a 0x44;
  e8 a 0x0f;
  e8 a 0xd6;
  e8 a ((x land 7) lsl 3)

let finish a =
  let code = Buffer.to_bytes a.abuf in
  List.iter
    (fun (at, l) ->
      let target = Hashtbl.find a.lbls l in
      Bytes.set_int32_le code at (Int32.of_int (target - (at + 4))))
    a.fixups;
  code

(* Per-guard fault stubs, emitted after the epilogue. *)
type stub = {
  sk : int;  (* active-instruction index *)
  s_mis : int option;
  s_oob : int;
  s_oobhi : int option;
  s_store16 : Reg.xmm option;
}

(* jb/ja against [base, base+size-sz]: unsigned comparisons on the full
   64-bit address are equivalent to Memory.offset's single unsigned
   check of (addr - base) against (size - sz) — an address below base or
   wrapped negative is unsigned-huge on one side or the other. *)
let emit_guard a ~base ~msize ~k (ac : acc) =
  mov_abs a ~stor:true 0 st_scr_rax;
  (match
     Encoder.encode_instr
       (Instr.make_unchecked (Opcode.Lea Reg.Q)
          [| Operand.Mem ac.mem; Operand.Gp Reg.Rax |])
   with
   | Ok s -> Buffer.add_string a.abuf s
   | Error _ -> raise Exit);
  mov_abs a ~stor:true 0 st_scr_ea;
  lahf_seto a;
  mov_abs a ~stor:true 0 st_scr_flags;
  mov_abs a ~stor:false 0 st_scr_ea;
  let s_mis =
    if ac.aligned then begin
      let l = new_label a in
      e8 a 0xa8;
      e8 a 0x0f;
      (* test al, 15 *)
      jcc a 5 l;
      (* jnz *)
      Some l
    end
    else None
  in
  let s_oob = new_label a in
  cmp_rax a base;
  jcc a 2 s_oob;
  (* jb: below base *)
  let s_oobhi =
    if ac.sz <= 8 then begin
      cmp_rax a (base + msize - ac.sz);
      jcc a 7 s_oob;
      (* ja: runs past the end *)
      None
    end
    else begin
      cmp_rax a (base + msize - 8);
      jcc a 7 s_oob;
      let l = new_label a in
      cmp_rax a (base + msize - 16);
      jcc a 7 l;
      Some l
    end
  in
  mov_abs a ~stor:false 0 st_scr_flags;
  restore_flags a;
  mov_abs a ~stor:false 0 st_scr_rax;
  { sk = k; s_mis; s_oob; s_oobhi;
    s_store16 = (if ac.sz = 16 && ac.store then ac.store_xmm else None) }

(* kind: 0 = out-of-bounds, 1 = misaligned; code = k*4 + kind *)
let emit_stub a ~fault_exit ~k ~kind ~ea_plus8 ~partial =
  (match partial with
   | Some x -> movq_store_rax a (Reg.xmm_index x)
   | None -> ());
  if ea_plus8 then begin
    (* add rax, 8: the faulting address is the high quad's *)
    e8 a 0x48;
    e8 a 0x83;
    e8 a 0xc0;
    e8 a 0x08
  end;
  mov_abs a ~stor:true 0 st_f_ea;
  mov_abs_imm a st_f_code ((k * 4) + kind);
  jmp a fault_exit

let emit_trampoline ~base ~msize items =
  let a = new_asm () in
  (* prologue: save host state, load lane state *)
  mov_abs a ~stor:true 4 st_host_rsp;
  List.iteri
    (fun j r -> mov_abs a ~stor:true r (st_host_save + (8 * j)))
    [ 3; 5; 12; 13; 14; 15 ];
  mov_abs a ~stor:false 0 st_flags_in;
  restore_flags a;
  for x = 0 to 15 do
    movaps_abs a ~stor:false x (st_xmm_in + (16 * x))
  done;
  for r = 1 to 15 do
    mov_abs a ~stor:false r (st_gp_in + (8 * r))
  done;
  mov_abs a ~stor:false 0 st_gp_in;
  (* body *)
  let stubs = ref [] in
  List.iteri
    (fun k (bytes, macc) ->
      (match macc with
       | `No_mem -> ()
       | `Mem ac -> stubs := emit_guard a ~base ~msize ~k ac :: !stubs);
      Buffer.add_string a.abuf bytes)
    items;
  (* epilogue *)
  mov_abs a ~stor:true 0 st_gp_out;
  lahf_seto a;
  mov_abs a ~stor:true 0 st_flags_out;
  let spill_rest = new_label a in
  def_label a spill_rest;
  for r = 1 to 15 do
    mov_abs a ~stor:true r (st_gp_out + (8 * r))
  done;
  for x = 0 to 15 do
    movaps_abs a ~stor:true x (st_xmm_out + (16 * x))
  done;
  mov_abs a ~stor:false 4 st_host_rsp;
  List.iteri
    (fun j r -> mov_abs a ~stor:false r (st_host_save + (8 * j)))
    [ 3; 5; 12; 13; 14; 15 ];
  e8 a 0xc3;
  (* fault exit: flags and rax at the fault are in the guard's scratch
     slots (the faulting instruction itself never ran, so machine state
     is the pre-instruction state, as in the interpreter) *)
  let fault_exit = new_label a in
  def_label a fault_exit;
  mov_abs a ~stor:false 0 st_scr_flags;
  mov_abs a ~stor:true 0 st_flags_out;
  mov_abs a ~stor:false 0 st_scr_rax;
  mov_abs a ~stor:true 0 st_gp_out;
  jmp a spill_rest;
  List.iter
    (fun s ->
      (match s.s_mis with
       | Some l ->
         def_label a l;
         emit_stub a ~fault_exit ~k:s.sk ~kind:1 ~ea_plus8:false ~partial:None
       | None -> ());
      def_label a s.s_oob;
      emit_stub a ~fault_exit ~k:s.sk ~kind:0 ~ea_plus8:false ~partial:None;
      match s.s_oobhi with
      | Some l ->
        def_label a l;
        emit_stub a ~fault_exit ~k:s.sk ~kind:0 ~ea_plus8:true
          ~partial:s.s_store16
      | None -> ())
    (List.rev !stubs);
  finish a

(* ----- flag and lane-record marshalling -----

   The raw flag word is the rax value after [lahf; seto al]: the lahf
   byte in bits 8–15 (SF/ZF/AF/PF/CF at 15/14/12/10/8) and OF in bit 0.
   The same format loads via [add al, 0x7f; sahf]. *)

let raw_of_flags (f : Machine.flags) =
  let b c v = if c then v else 0 in
  Int64.of_int
    (b f.Machine.sf 0x8000 lor b f.Machine.zf 0x4000
    lor b f.Machine.pf 0x400 lor 0x200 lor b f.Machine.cf 0x100
    lor b f.Machine.o_f 1)

let flags_of_raw (f : Machine.flags) raw =
  let bit k = Int64.logand (Int64.shift_right_logical raw k) 1L = 1L in
  f.Machine.cf <- bit 8;
  f.Machine.pf <- bit 10;
  f.Machine.zf <- bit 14;
  f.Machine.sf <- bit 15;
  f.Machine.o_f <- bit 0

(* lane record: GP plane at +0, xmm at +0x80 (lo/hi quad pairs) — exactly
   Machine.regs's layout, so the registers go across as one blit — and
   raw flags at +0x180 *)
let write_lane_record blob off (m : Machine.t) =
  Bytes.blit m.Machine.regs 0 blob off Machine.regs_size;
  Bytes.set_int64_le blob (off + Machine.regs_size) (raw_of_flags m.Machine.flags)

(* ----- batches and compiled programs ----- *)

type batch = {
  h : handle;
  nlanes : int;
  mem_size : int;
  base : int64;
  pristine : Machine.t array;  (* baked pristine+testcase per lane *)
  cur : Machine.t array;  (* parent-side view for overlays and tests *)
  want_mem : bool;
  baked_uniform : bool;  (* every lane's baked arena image is identical *)
  lanes_blob : Bytes.t;
  mutable blob_dirty : bool;
  results : Bytes.t;
  membuf : Bytes.t;
  readout : Bytes.t;  (* a register file, for lane_regs *)
  touched : bool array;
  mutable any_touched : bool;
  mutable crashed : bool;
  mutable last : t option;
}

and t = {
  tb : batch;
  cbytes : Bytes.t;
  clen : int;
  nactive : int;
  lat_prefix : int array;  (* lat_prefix.(i) = cycles of the first i *)
  has_stores : bool;
}

let lane_count b = b.nlanes
let length t = t.nactive
let code t = Bytes.sub_string t.cbytes 0 t.clen
let respawns b = nat_respawns b.h

let create_batch ?(want_mem = false) (pristine : Machine.t) tests =
  let n = Array.length tests in
  if n = 0 then invalid_arg "Native.create_batch: empty test array";
  if not (available ()) then None
  else begin
    let mem_size = Memory.size pristine.Machine.mem in
    let base = Memory.base pristine.Machine.mem in
    match nat_create n mem_size base with
    | None -> None
    | Some h ->
      let lanes =
        Array.map
          (fun tc ->
            let m = Machine.copy pristine in
            Testcase.apply tc m;
            m)
          tests
      in
      let cur = Array.map Machine.copy lanes in
      let baked_uniform =
        Array.for_all
          (fun m -> Memory.equal m.Machine.mem lanes.(0).Machine.mem)
          lanes
      in
      let lanes_blob = Bytes.create (n * lane_sz) in
      Array.iteri
        (fun l m -> write_lane_record lanes_blob (l * lane_sz) m)
        lanes;
      nat_write_lanes h lanes_blob;
      Array.iteri
        (fun l m -> nat_write_arena h l (Memory.unsafe_bytes m.Machine.mem))
        lanes;
      Some
        {
          h;
          nlanes = n;
          mem_size;
          base;
          pristine = lanes;
          cur;
          want_mem;
          baked_uniform;
          lanes_blob;
          blob_dirty = false;
          results = Bytes.create (n * res_sz);
          membuf = Bytes.create mem_size;
          readout = Bytes.create Machine.regs_size;
          touched = Array.make n false;
          any_touched = false;
          crashed = false;
          last = None;
        }
  end

let reset b =
  if b.any_touched then begin
    for l = 0 to b.nlanes - 1 do
      if b.touched.(l) then begin
        Machine.restore_from ~src:b.pristine.(l) ~dst:b.cur.(l);
        write_lane_record b.lanes_blob (l * lane_sz) b.pristine.(l);
        nat_write_arena b.h l (Memory.unsafe_bytes b.pristine.(l).Machine.mem);
        b.touched.(l) <- false
      end
    done;
    b.blob_dirty <- true;
    b.any_touched <- false
  end

let apply_testcase b ~lane tc =
  Testcase.apply tc b.cur.(lane);
  write_lane_record b.lanes_blob (lane * lane_sz) b.cur.(lane);
  b.blob_dirty <- true;
  if tc.Testcase.mem_writes <> [] then
    nat_write_arena b.h lane (Memory.unsafe_bytes b.cur.(lane).Machine.mem);
  b.touched.(lane) <- true;
  b.any_touched <- true

let compile (b : batch) (p : Program.t) : t option =
  let cpu = Lazy.force cpu_flags in
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | i :: rest ->
      (match Encoder.encode_instr i, analyze cpu i with
       | Ok bytes, Some (`Fixup fi) ->
         (* fold the flag-repair bytes into the instruction's own item:
            the fixup is register-only and cannot fault, so positions,
            executed counts and latency stay per original instruction *)
         (match Encoder.encode_instr fi with
          | Ok fb -> gather ((i, bytes ^ fb, `No_mem) :: acc) rest
          | Error _ -> None)
       | Ok bytes, Some ((`No_mem | `Mem _) as macc) ->
         gather ((i, bytes, macc) :: acc) rest
       | _ -> None)
  in
  match gather [] (Program.instrs p) with
  | None -> None
  | Some items ->
    let nactive = List.length items in
    let lat_prefix = Array.make (nactive + 1) 0 in
    List.iteri
      (fun k (i, _, _) ->
        lat_prefix.(k + 1) <- lat_prefix.(k) + Latency.of_instr i)
      items;
    let has_stores =
      List.exists
        (fun (_, _, m) -> match m with `Mem a -> a.store | `No_mem -> false)
        items
    in
    (match
       emit_trampoline ~base:(Int64.to_int b.base) ~msize:b.mem_size
         (List.map (fun (_, bytes, m) -> (bytes, m)) items)
     with
     | exception Exit -> None
     | cbytes ->
       if Bytes.length cbytes > code_max then None
       else
         Some
           { tb = b; cbytes; clen = Bytes.length cbytes; nactive; lat_prefix;
             has_stores })

(* ----- execution and result parsing ----- *)

let result_of (b : batch) (t : t) lane =
  let off = lane * res_sz in
  let status = Int32.to_int (Bytes.get_int32_le b.results off) in
  if status = 0 then
    { Exec.outcome = Exec.Finished; cycles = t.lat_prefix.(t.nactive);
      executed = t.nactive }
  else if status = 1 then begin
    let fcode = Int32.to_int (Bytes.get_int32_le b.results (off + 4)) in
    let k = fcode lsr 2 and kind = fcode land 3 in
    let ea = Bytes.get_int64_le b.results (off + 8) in
    let mf =
      if kind = 1 then Memory.Misaligned ea else Memory.Out_of_bounds ea
    in
    let executed = min (k + 1) t.nactive in
    { Exec.outcome = Exec.Faulted (Semantics.Segv (Memory.fault_to_string mf));
      cycles = t.lat_prefix.(executed); executed }
  end
  else begin
    let signo = Int32.to_int (Bytes.get_int32_le b.results (off + 4)) in
    let rip = Bytes.get_int64_le b.results (off + 16) in
    { Exec.outcome =
        Exec.Faulted
          (Semantics.Sigill
             (Printf.sprintf "native hardware fault (signal %d at +0x%Lx)"
                signo rip));
      cycles = t.lat_prefix.(t.nactive); executed = t.nactive }
  end

let exec (t : t) =
  let b = t.tb in
  if b.blob_dirty then begin
    nat_write_lanes b.h b.lanes_blob;
    b.blob_dirty <- false
  end;
  (match b.last with
   | Some t' when t' == t -> ()
   | _ -> nat_write_code b.h t.cbytes t.clen);
  b.last <- Some t;
  let uniform = b.baked_uniform && not b.any_touched in
  let fl =
    (if uniform then rq_uniform else 0)
    lor (if t.has_stores then rq_has_stores else 0)
    lor if b.want_mem then rq_want_mem else 0
  in
  let rc = nat_request b.h b.nlanes t.clen fl in
  if rc <> 0 then begin
    b.crashed <- true;
    true
  end
  else begin
    b.crashed <- false;
    nat_read_results b.h b.results;
    if Exec.Counters.is_enabled () then
      for l = 0 to b.nlanes - 1 do
        let r = result_of b t l in
        Exec.Counters.record ~run_cycles:r.Exec.cycles
          ~run_instrs:r.Exec.executed
          ~faulted:
            (match r.Exec.outcome with
             | Exec.Finished -> false
             | Exec.Faulted _ -> true)
      done;
    false
  end

let crash_fault = Semantics.Sigill "native worker crashed"

let fault (b : batch) ~lane =
  if b.crashed then Some crash_fault
  else begin
    let off = lane * res_sz in
    let status = Int32.to_int (Bytes.get_int32_le b.results off) in
    if status = 0 then None
    else
      match b.last with
      | None -> None
      | Some t ->
        (match (result_of b t lane).Exec.outcome with
         | Exec.Faulted f -> Some f
         | Exec.Finished -> None)
  end

let result (b : batch) ~lane =
  match b.last with
  | None -> invalid_arg "Native.result: nothing executed"
  | Some t ->
    if b.crashed then
      { Exec.outcome = Exec.Faulted crash_fault; cycles = 0; executed = 0 }
    else result_of b t lane

let lane_regs (b : batch) ~lane =
  Bytes.blit b.results ((lane * res_sz) + 24) b.readout 0 Machine.regs_size;
  b.readout

let lane_machine (b : batch) ~lane =
  if not b.want_mem then
    invalid_arg "Native.lane_machine: batch created without want_mem";
  let m = b.cur.(lane) in
  let off = (lane * res_sz) + 24 in
  Bytes.blit b.results off m.Machine.regs 0 Machine.regs_size;
  flags_of_raw m.Machine.flags
    (Bytes.get_int64_le b.results (off + Machine.regs_size));
  nat_read_mem b.h lane b.membuf;
  Memory.set_bytes m.Machine.mem b.base (Bytes.to_string b.membuf);
  b.touched.(lane) <- true;
  b.any_touched <- true;
  m

let run_one (b : batch) (t : t) (m : Machine.t) =
  if not b.want_mem then
    invalid_arg "Native.run_one: batch created without want_mem";
  write_lane_record b.lanes_blob 0 m;
  nat_write_lanes b.h b.lanes_blob;
  b.blob_dirty <- false;
  nat_write_arena b.h 0 (Memory.unsafe_bytes m.Machine.mem);
  b.touched.(0) <- true;
  b.any_touched <- true;
  (match b.last with
   | Some t' when t' == t -> ()
   | _ -> nat_write_code b.h t.cbytes t.clen);
  b.last <- Some t;
  let fl = rq_want_mem lor if t.has_stores then rq_has_stores else 0 in
  let rc = nat_request b.h 1 t.clen fl in
  if rc <> 0 then begin
    b.crashed <- true;
    None
  end
  else begin
    b.crashed <- false;
    nat_read_results b.h b.results;
    let status = Int32.to_int (Bytes.get_int32_le b.results 0) in
    if status >= 2 then None (* hardware fault: divergent, caller falls back *)
    else begin
      Bytes.blit b.results 24 m.Machine.regs 0 Machine.regs_size;
      flags_of_raw m.Machine.flags
        (Bytes.get_int64_le b.results (24 + Machine.regs_size));
      nat_read_mem b.h 0 b.membuf;
      Memory.set_bytes m.Machine.mem b.base (Bytes.to_string b.membuf);
      let r = result_of b t 0 in
      if Exec.Counters.is_enabled () then
        Exec.Counters.record ~run_cycles:r.Exec.cycles
          ~run_instrs:r.Exec.executed
          ~faulted:
            (match r.Exec.outcome with
             | Exec.Finished -> false
             | Exec.Faulted _ -> true);
      Some r
    end
  end

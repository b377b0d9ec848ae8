type loc =
  | Lgp of Reg.gp
  | Lxmm of Reg.xmm
  | Lflags
  | Lmem

(* One bit per location, numbered so that ascending bit order is
   [Stdlib.compare] order on [loc]: the constant constructors first
   (flags = bit 0, mem = bit 1), then GPs by index (bits 2-17), then XMMs
   by index (bits 18-33).  [elements] and [fold] walk the bits upwards,
   so diagnostics list locations in that order. *)
module Locset = struct
  type t = int

  let flags_bit = 1
  let mem_bit = 2
  let gp_bit r = 1 lsl (2 + Reg.gp_index r)
  let xmm_bit r = 1 lsl (18 + Reg.xmm_index r)
  let width = 34

  let bit = function
    | Lflags -> flags_bit
    | Lmem -> mem_bit
    | Lgp r -> gp_bit r
    | Lxmm r -> xmm_bit r

  let by_index all index =
    let a = Array.of_list all in
    List.iter (fun r -> a.(index r) <- r) all;
    a

  let gps = by_index Reg.all_gp Reg.gp_index
  let xmms = by_index Reg.all_xmm Reg.xmm_index

  let loc_of_bit k =
    if k = 0 then Lflags
    else if k = 1 then Lmem
    else if k < 18 then Lgp gps.(k - 2)
    else Lxmm xmms.(k - 18)

  let empty = 0
  let is_empty s = s = 0
  let mem l s = s land bit l <> 0
  let add l s = s lor bit l
  let singleton = bit
  let remove l s = s land lnot (bit l)
  let union a b = a lor b
  let diff a b = a land lnot b
  let subset a b = a land lnot b = 0
  let equal = Int.equal
  let disjoint a b = a land b = 0

  let fold f s acc =
    let acc = ref acc in
    for k = 0 to width - 1 do
      if s land (1 lsl k) <> 0 then acc := f (loc_of_bit k) !acc
    done;
    !acc

  let iter f s = fold (fun l () -> f l) s ()
  let for_all p s = fold (fun l ok -> ok && p l) s true
  let elements s = List.rev (fold List.cons s [])
  let of_list l = List.fold_left (fun s x -> add x s) empty l
end

let mem_addr_uses (m : Operand.mem) =
  (match m.base with
   | None -> Locset.empty
   | Some r -> Locset.gp_bit r)
  lor
  (match m.index with
   | None -> Locset.empty
   | Some (r, _) -> Locset.gp_bit r)

let operand_read_uses = function
  | Operand.Gp r -> Locset.gp_bit r
  | Operand.Xmm r -> Locset.xmm_bit r
  | Operand.Imm _ -> Locset.empty
  | Operand.Mem m -> Locset.mem_bit lor mem_addr_uses m

let operand_def = function
  | Operand.Gp r -> Locset.gp_bit r
  | Operand.Xmm r -> Locset.xmm_bit r
  | Operand.Imm _ -> Locset.empty
  | Operand.Mem _ -> Locset.mem_bit

(* What an opcode does with the flags and its destination, as bits, in
   one match:
   - [p_flags_def]: may define the flags;
   - [p_flags_use]: reads them (cmov, setcc);
   - [p_dst_read]: the destination's previous value feeds the result —
     read-modify-write ALU ops, merging SSE scalar writes, FMA forms
     whose destination is a multiplicand or addend;
   - [p_merge]: that read only re-emits the bits the instruction does
     not compute (setcc's upper 56 bits, the scalar SSE merge forms'
     upper lanes, movlhps/movhlps' untouched half);
   - [p_movs]: movss/movsd, whose reg-to-reg forms read and merge into
     the destination and whose loads overwrite it;
   - [p_no_dst]: no destination at all (cmp, test, the FP compares);
   - [p_lea]: computes a memory operand's address without accessing it;
   - [p_keeps_cf]: inc/dec, which define the flags but keep CF;
   - [p_shift32]/[p_shift64]: a shift, which leaves every flag when its
     count masked to 31 or 63 is zero. *)
let p_flags_def = 1
let p_flags_use = 2
let p_dst_read = 4
let p_merge = 8
let p_movs = 16
let p_no_dst = 32
let p_lea = 64
let p_keeps_cf = 128
let p_shift32 = 256
let p_shift64 = 512

let rmw = p_flags_def lor p_dst_read
let merging = p_dst_read lor p_merge
let shift = function
  | Reg.L -> rmw lor p_shift32
  | Reg.Q -> rmw lor p_shift64

let props : Opcode.t -> int = function
  | Mov _ | Movabs -> 0
  | Lea _ -> p_lea
  | Add _ | Sub _ | Imul _ | And _ | Or _ | Xor _ | Neg _ -> rmw
  | Not _ -> p_dst_read
  | Inc _ | Dec _ -> rmw lor p_keeps_cf
  | Shl w | Shr w | Sar w -> shift w
  | Cmp _ | Test _ -> p_flags_def lor p_no_dst
  | Cmov _ -> p_flags_use lor p_dst_read
  | Setcc _ -> p_flags_use lor merging
  | Movss | Movsd -> p_movs
  | Movaps | Movups | Lddqu | Movq | Movd -> 0
  | Movlhps | Movhlps -> merging
  | Addss | Addsd | Subss | Subsd | Mulss | Mulsd | Divss | Divsd | Minss
  | Minsd | Maxss | Maxsd ->
    p_dst_read
  | Sqrtss | Sqrtsd -> merging
  | Ucomiss | Ucomisd | Comiss | Comisd -> p_flags_def lor p_no_dst
  | Andps | Andpd | Andnps | Orps | Orpd | Xorps | Xorpd | Pand | Por | Pxor
  | Paddd | Paddq | Psubd | Psubq | Addps | Addpd | Subps | Subpd | Mulps
  | Mulpd | Divps | Divpd | Minps | Maxps | Shufps ->
    p_dst_read
  | Pshufd | Pshuflw -> 0
  | Punpckldq | Punpcklqdq | Unpcklps | Unpcklpd -> p_dst_read
  | Pslld | Psrld | Psllq | Psrlq -> p_dst_read
  | Cvtss2sd | Cvtsd2ss | Cvtsi2sd _ | Cvtsi2ss _ -> merging
  | Cvttsd2si _ | Cvttss2si _ | Cvtsd2si _ -> 0
  | Roundsd | Roundss -> merging
  | Vaddss | Vaddsd | Vsubss | Vsubsd | Vmulss | Vmulsd | Vdivss | Vdivsd
  | Vminss | Vminsd | Vmaxss | Vmaxsd | Vsqrtsd | Vaddps | Vsubps | Vmulps
  | Vaddpd | Vmulpd | Vxorps | Vandps | Vpshuflw | Vunpcklps ->
    0
  | Vfmadd132sd | Vfmadd213sd | Vfmadd231sd | Vfmadd132ss | Vfmadd213ss
  | Vfmadd231ss | Vfnmadd213sd | Vfnmadd231sd | Vfmsub213sd ->
    p_dst_read

type summary = {
  defs : Locset.t;
  uses : Locset.t;
  strict_uses : Locset.t;
  kills : Locset.t;
  cannot_fault : bool;
}

let is_mem = function
  | Operand.Mem _ -> true
  | Operand.Gp _ | Operand.Xmm _ | Operand.Imm _ -> false

(* Whether the destination's previous value is read: movss/movsd read it
   in their reg-to-reg forms only. *)
let dst_read pr (ops : Operand.t array) =
  if pr land p_movs = 0 then pr land p_dst_read <> 0
  else
    let n = Array.length ops in
    (not (n >= 2 && is_mem ops.(0)))
    && n > 0
    && match ops.(n - 1) with
       | Operand.Xmm _ -> true
       | Operand.Gp _ | Operand.Imm _ | Operand.Mem _ -> false

let summary (i : Instr.t) =
  let ops = i.operands in
  let n = Array.length ops in
  let pr = props i.op in
  let dst = if pr land p_no_dst = 0 && n > 0 then n - 1 else -1 in
  let dst_read = dst_read pr ops in
  (* the merge forms' destination read re-emits bits only *)
  let merge = pr land p_merge <> 0 || pr land p_movs <> 0 in
  (* Every read but the destination's value, which [dst_value] holds: a
     store uses its address registers regardless, and a read-modify-write
     memory destination (add into memory) reads the memory blob itself;
     lea computes its address without reading memory. *)
  let reads = ref (if pr land p_flags_use <> 0 then Locset.flags_bit else Locset.empty) in
  let dst_value = ref Locset.empty and has_mem = ref false in
  for idx = 0 to n - 1 do
    let o = ops.(idx) in
    match o with
    | Operand.Mem m ->
      has_mem := true;
      if idx = dst then begin
        reads := !reads lor mem_addr_uses m;
        dst_value := Locset.mem_bit
      end
      else if pr land p_lea <> 0 then reads := !reads lor mem_addr_uses m
      else reads := !reads lor operand_read_uses o
    | Operand.Gp _ | Operand.Xmm _ | Operand.Imm _ ->
      if idx = dst then dst_value := operand_read_uses o
      else reads := !reads lor operand_read_uses o
  done;
  let reads = !reads and dst_value = if dst_read then !dst_value else Locset.empty in
  let defs =
    (if dst >= 0 then operand_def ops.(dst) else Locset.empty)
    lor if pr land p_flags_def <> 0 then Locset.flags_bit else Locset.empty
  in
  (* Are all five flags rewritten?  inc/dec keep CF, and a shift whose
     masked count is zero leaves every flag. *)
  let kills_flags =
    pr land p_flags_def <> 0
    && pr land p_keeps_cf = 0
    && (pr land (p_shift32 lor p_shift64) = 0
       || n > 0
          &&
          match ops.(0) with
          | Operand.Imm c ->
            let mask = if pr land p_shift64 <> 0 then 63L else 31L in
            not (Int64.equal (Int64.logand c mask) 0L)
          | Operand.Gp _ | Operand.Xmm _ | Operand.Mem _ -> false)
  in
  let kills = defs land lnot Locset.mem_bit in
  {
    defs;
    uses = reads lor dst_value;
    strict_uses = (if merge then reads else reads lor dst_value);
    kills = (if kills_flags then kills else kills land lnot Locset.flags_bit);
    (* Only a memory access faults in [Semantics.step] once an
       instruction is well formed, and [lea] never accesses its operand. *)
    cannot_fault =
      Shape.position i.op ops >= 0 && (pr land p_lea <> 0 || not !has_mem);
  }

let defs i = (summary i).defs
let uses i = (summary i).uses
let strict_uses i = (summary i).strict_uses
let kills i = (summary i).kills
let cannot_fault i = (summary i).cannot_fault

let merge_only_dst (i : Instr.t) =
  let pr = props i.op in
  pr land p_merge <> 0 || (pr land p_movs <> 0 && dst_read pr i.operands)

let live_before p ~live_out =
  let slots = p.Program.slots in
  let n = Array.length slots in
  let result = Array.make n Locset.empty in
  let live = ref live_out in
  for idx = n - 1 downto 0 do
    (match slots.(idx) with
     | Program.Unused -> ()
     | Program.Active i ->
       live := Locset.union (Locset.diff !live (kills i)) (uses i));
    result.(idx) <- !live
  done;
  result

let live_in p ~live_out =
  let before = live_before p ~live_out in
  if Array.length before = 0 then live_out else before.(0)

let is_store (i : Instr.t) =
  props i.op land p_no_dst = 0
  &&
  let n = Array.length i.operands in
  n > 0 && is_mem i.operands.(n - 1)

let dead_slots p ~live_out =
  let slots = p.Program.slots in
  let n = Array.length slots in
  let dead = Array.make n false in
  (* Live sets *after* each slot: live_before shifted by one. *)
  let before = live_before p ~live_out in
  let after idx = if idx = n - 1 then live_out else before.(idx + 1) in
  for idx = 0 to n - 1 do
    match slots.(idx) with
    | Program.Unused -> ()
    | Program.Active i ->
      if (not (is_store i)) && Locset.disjoint (defs i) (after idx) then
        dead.(idx) <- true
  done;
  dead

let dce p ~live_out =
  let p = Program.copy p in
  let changed = ref true in
  while !changed do
    changed := false;
    let dead = dead_slots p ~live_out in
    Array.iteri
      (fun idx d ->
        if d then begin
          p.Program.slots.(idx) <- Program.Unused;
          changed := true
        end)
      dead
  done;
  p

let loc_to_string = function
  | Lgp r -> Reg.gp_name Reg.Q r
  | Lxmm r -> Reg.xmm_name r
  | Lflags -> "flags"
  | Lmem -> "mem"

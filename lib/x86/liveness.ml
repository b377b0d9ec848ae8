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

(* The flags-defining opcodes of our subset. *)
let defines_flags : Opcode.t -> bool = function
  | Add _ | Sub _ | Imul _ | And _ | Or _ | Xor _ | Neg _ | Inc _ | Dec _
  | Shl _ | Shr _ | Sar _ | Cmp _ | Test _ | Ucomiss | Ucomisd | Comiss
  | Comisd ->
    true
  | _ -> false

let uses_flags : Opcode.t -> bool = function
  | Cmov _ | Setcc _ -> true
  | _ -> false

(* Does the destination's previous value feed the result?  True for
   read-modify-write ALU ops, for merging SSE scalar writes from registers,
   and for FMA forms where the destination is a multiplicand/addend. *)
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
  | Setcc _ -> true (* writes only the low byte *)
  | Movss | Movsd ->
    (* reg-to-reg forms merge into the destination's upper bits; loads from
       memory overwrite the register. *)
    not from_mem
    && (match i.operands.(i.operands |> Array.length |> fun n -> n - 1) with
        | Operand.Xmm _ -> true
        | _ -> false)
  | Movaps | Movups | Lddqu | Movq | Movd -> false
  | Movlhps | Movhlps -> true
  | Addss | Addsd | Subss | Subsd | Mulss | Mulsd | Divss | Divsd | Minss
  | Minsd | Maxss | Maxsd ->
    true
  | Sqrtss | Sqrtsd -> true (* upper bits merge *)
  | Ucomiss | Ucomisd | Comiss | Comisd -> false (* no destination at all *)
  | Andps | Andpd | Andnps | Orps | Orpd | Xorps | Xorpd | Pand | Por | Pxor
  | Paddd | Paddq | Psubd | Psubq | Addps | Addpd | Subps | Subpd | Mulps
  | Mulpd | Divps | Divpd | Minps | Maxps ->
    true
  | Shufps -> true
  | Pshufd | Pshuflw -> false
  | Punpckldq | Punpcklqdq | Unpcklps | Unpcklpd -> true
  | Pslld | Psrld | Psllq | Psrlq -> true
  | Cvtss2sd | Cvtsd2ss | Cvtsi2sd _ | Cvtsi2ss _ -> true (* merge upper *)
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
  if defines_flags i.op then base lor Locset.flags_bit else base

let uses_via ~dst_read (i : Instr.t) =
  let ops = i.operands in
  let n = Array.length ops in
  let dst = if has_dst i then n - 1 else -1 in
  let acc = ref (if uses_flags i.op then Locset.flags_bit else Locset.empty) in
  for idx = 0 to n - 1 do
    let o = ops.(idx) in
    let read =
      if idx = dst then
        match o with
        | Operand.Mem m ->
          (* A store uses its address registers regardless, and a
             read-modify-write memory destination (add into memory) reads
             the memory blob itself. *)
          mem_addr_uses m lor (if dst_read then Locset.mem_bit else Locset.empty)
        | Operand.Gp _ | Operand.Xmm _ ->
          if dst_read then operand_read_uses o else Locset.empty
        | Operand.Imm _ -> Locset.empty
      else
        match i.op, o with
        | Opcode.Lea _, Operand.Mem m ->
          (* lea computes the address without reading memory. *)
          mem_addr_uses m
        | _, _ -> operand_read_uses o
    in
    acc := !acc lor read
  done;
  !acc

let uses (i : Instr.t) = uses_via ~dst_read:(dst_is_source i) i

(* Destination reads whose old value is only re-emitted into the bits the
   instruction does not compute: setcc keeps the upper 56 bits, the scalar
   SSE merge forms keep the upper lanes, movlhps/movhlps keep the untouched
   half.  The destination's value never feeds the computed bits, unlike
   read-modify-write ALU ops or the scalar FP ops whose dst is an operand. *)
let merge_only_dst (i : Instr.t) =
  match i.op with
  | Setcc _ -> true
  | Movss | Movsd -> dst_is_source i (* the reg-to-reg merge forms *)
  | Sqrtss | Sqrtsd | Cvtss2sd | Cvtsd2ss | Cvtsi2sd _ | Cvtsi2ss _
  | Roundsd | Roundss | Movlhps | Movhlps ->
    true
  | _ -> false

let strict_uses (i : Instr.t) =
  uses_via ~dst_read:(dst_is_source i && not (merge_only_dst i)) i

(* Does [i] rewrite all five flags?  [defines_flags] is the may-def
   over-approximation; two families write fewer: inc/dec preserve CF, and a
   shift whose masked count (count land 63 at width Q, land 31 at L) is zero
   leaves every flag untouched. *)
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
  let k = Locset.diff (defs i) Locset.mem_bit in
  if kills_flags i then k else Locset.diff k Locset.flags_bit

(* Only a memory access faults in [Semantics.step] once an instruction is
   well formed, and [lea] computes its address without accessing it. *)
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
  has_dst i
  &&
  let n = Array.length i.operands in
  n > 0
  &&
  match i.operands.(n - 1) with
  | Operand.Mem _ -> true
  | _ -> false

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

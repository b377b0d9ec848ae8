let mem_penalty = 3

let of_opcode : Opcode.t -> int = function
  (* Moves and logic are single-cycle. *)
  | Mov _ | Movabs | Lea _ -> 1
  | Add _ | Sub _ | And _ | Or _ | Xor _ | Not _ | Neg _ | Inc _ | Dec _ -> 1
  | Shl _ | Shr _ | Sar _ -> 1
  | Cmp _ | Test _ | Setcc _ -> 1
  | Cmov _ -> 2
  | Imul _ -> 3
  (* SSE moves: reg-reg forwarding is 1 cycle; cross-domain moves cost
     more. *)
  | Movss | Movsd | Movaps | Movups | Lddqu -> 1
  | Movq | Movd -> 2
  | Movlhps | Movhlps -> 1
  (* Scalar FP arithmetic, Haswell: add 3, mul 5, div ~13/20, sqrt
     ~13/20. *)
  | Addss | Subss | Addsd | Subsd -> 3
  | Mulss | Mulsd -> 5
  | Divss -> 13
  | Divsd -> 20
  | Sqrtss -> 13
  | Sqrtsd -> 20
  | Minss | Minsd | Maxss | Maxsd -> 3
  | Ucomiss | Ucomisd | Comiss | Comisd -> 3
  | Andps | Andpd | Andnps | Orps | Orpd | Xorps | Xorpd -> 1
  | Pand | Por | Pxor -> 1
  | Paddd | Paddq | Psubd | Psubq -> 1
  | Addps | Subps | Addpd | Subpd -> 3
  | Mulps | Mulpd -> 5
  | Divps -> 13
  | Divpd -> 20
  | Minps | Maxps -> 3
  | Shufps | Pshufd | Pshuflw -> 1
  | Punpckldq | Punpcklqdq | Unpcklps | Unpcklpd -> 1
  | Pslld | Psrld | Psllq | Psrlq -> 1
  | Cvtss2sd | Cvtsd2ss -> 2
  | Cvtsi2sd _ | Cvtsi2ss _ -> 4
  | Cvttsd2si _ | Cvttss2si _ | Cvtsd2si _ -> 4
  | Roundsd | Roundss -> 6
  | Vaddss | Vaddsd | Vsubss | Vsubsd -> 3
  | Vmulss | Vmulsd -> 5
  | Vdivss -> 13
  | Vdivsd -> 20
  | Vminss | Vminsd | Vmaxss | Vmaxsd -> 3
  | Vsqrtsd -> 20
  | Vaddps | Vsubps | Vaddpd -> 3
  | Vmulps | Vmulpd -> 5
  | Vxorps | Vandps -> 1
  | Vpshuflw | Vunpcklps -> 1
  | Vfmadd132sd | Vfmadd213sd | Vfmadd231sd | Vfmadd132ss | Vfmadd213ss
  | Vfmadd231ss | Vfnmadd213sd | Vfnmadd231sd | Vfmsub213sd ->
    5

let of_instr (i : Instr.t) =
  let mem_ops =
    Array.fold_left
      (fun acc o ->
        match o with
        | Operand.Mem _ -> acc + 1
        | Operand.Gp _ | Operand.Xmm _ | Operand.Imm _ -> acc)
      0 i.operands
  in
  (* lea computes an address without touching memory. *)
  let penalty =
    match i.op with
    | Opcode.Lea _ -> 0
    | _ -> mem_ops * mem_penalty
  in
  of_opcode i.op + penalty

let of_program p =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Program.Unused -> acc
      | Program.Active i -> acc + of_instr i)
    0 p.Program.slots

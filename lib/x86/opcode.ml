type cond =
  | E
  | Ne
  | L
  | Le
  | G
  | Ge
  | B
  | Be
  | A
  | Ae
  | S
  | P

type t =
  | Mov of Reg.w
  | Movabs
  | Lea of Reg.w
  | Add of Reg.w
  | Sub of Reg.w
  | Imul of Reg.w
  | And of Reg.w
  | Or of Reg.w
  | Xor of Reg.w
  | Not of Reg.w
  | Neg of Reg.w
  | Inc of Reg.w
  | Dec of Reg.w
  | Shl of Reg.w
  | Shr of Reg.w
  | Sar of Reg.w
  | Cmp of Reg.w
  | Test of Reg.w
  | Cmov of cond * Reg.w
  | Setcc of cond
  | Movss
  | Movsd
  | Movaps
  | Movups
  | Lddqu
  | Movq
  | Movd
  | Movlhps
  | Movhlps
  | Addss
  | Addsd
  | Subss
  | Subsd
  | Mulss
  | Mulsd
  | Divss
  | Divsd
  | Sqrtss
  | Sqrtsd
  | Minss
  | Minsd
  | Maxss
  | Maxsd
  | Ucomiss
  | Ucomisd
  | Comiss
  | Comisd
  | Andps
  | Andpd
  | Andnps
  | Orps
  | Orpd
  | Xorps
  | Xorpd
  | Pand
  | Por
  | Pxor
  | Paddd
  | Paddq
  | Psubd
  | Psubq
  | Addps
  | Addpd
  | Subps
  | Subpd
  | Mulps
  | Mulpd
  | Divps
  | Divpd
  | Minps
  | Maxps
  | Shufps
  | Pshufd
  | Pshuflw
  | Punpckldq
  | Punpcklqdq
  | Unpcklps
  | Unpcklpd
  | Pslld
  | Psrld
  | Psllq
  | Psrlq
  | Cvtss2sd
  | Cvtsd2ss
  | Cvtsi2sd of Reg.w
  | Cvtsi2ss of Reg.w
  | Cvttsd2si of Reg.w
  | Cvttss2si of Reg.w
  | Cvtsd2si of Reg.w
  | Roundsd
  | Roundss
  | Vaddss
  | Vaddsd
  | Vsubss
  | Vsubsd
  | Vmulss
  | Vmulsd
  | Vdivss
  | Vdivsd
  | Vminss
  | Vminsd
  | Vmaxss
  | Vmaxsd
  | Vsqrtsd
  | Vaddps
  | Vsubps
  | Vmulps
  | Vaddpd
  | Vmulpd
  | Vxorps
  | Vandps
  | Vpshuflw
  | Vunpcklps
  | Vfmadd132sd
  | Vfmadd213sd
  | Vfmadd231sd
  | Vfmadd132ss
  | Vfmadd213ss
  | Vfmadd231ss
  | Vfnmadd213sd
  | Vfnmadd231sd
  | Vfmsub213sd

let cond_to_string = function
  | E -> "e"
  | Ne -> "ne"
  | L -> "l"
  | Le -> "le"
  | G -> "g"
  | Ge -> "ge"
  | B -> "b"
  | Be -> "be"
  | A -> "a"
  | Ae -> "ae"
  | S -> "s"
  | P -> "p"

let all_conds = [ E; Ne; L; Le; G; Ge; B; Be; A; Ae; S; P ]

let w_suffix = function
  | Reg.L -> "l"
  | Reg.Q -> "q"

let to_string = function
  | Mov w -> "mov" ^ w_suffix w
  | Movabs -> "movabs"
  | Lea w -> "lea" ^ w_suffix w
  | Add w -> "add" ^ w_suffix w
  | Sub w -> "sub" ^ w_suffix w
  | Imul w -> "imul" ^ w_suffix w
  | And w -> "and" ^ w_suffix w
  | Or w -> "or" ^ w_suffix w
  | Xor w -> "xor" ^ w_suffix w
  | Not w -> "not" ^ w_suffix w
  | Neg w -> "neg" ^ w_suffix w
  | Inc w -> "inc" ^ w_suffix w
  | Dec w -> "dec" ^ w_suffix w
  | Shl w -> "shl" ^ w_suffix w
  | Shr w -> "shr" ^ w_suffix w
  | Sar w -> "sar" ^ w_suffix w
  | Cmp w -> "cmp" ^ w_suffix w
  | Test w -> "test" ^ w_suffix w
  | Cmov (c, w) -> "cmov" ^ cond_to_string c ^ w_suffix w
  | Setcc c -> "set" ^ cond_to_string c
  | Movss -> "movss"
  | Movsd -> "movsd"
  | Movaps -> "movaps"
  | Movups -> "movups"
  | Lddqu -> "lddqu"
  | Movq -> "movq"
  | Movd -> "movd"
  | Movlhps -> "movlhps"
  | Movhlps -> "movhlps"
  | Addss -> "addss"
  | Addsd -> "addsd"
  | Subss -> "subss"
  | Subsd -> "subsd"
  | Mulss -> "mulss"
  | Mulsd -> "mulsd"
  | Divss -> "divss"
  | Divsd -> "divsd"
  | Sqrtss -> "sqrtss"
  | Sqrtsd -> "sqrtsd"
  | Minss -> "minss"
  | Minsd -> "minsd"
  | Maxss -> "maxss"
  | Maxsd -> "maxsd"
  | Ucomiss -> "ucomiss"
  | Ucomisd -> "ucomisd"
  | Comiss -> "comiss"
  | Comisd -> "comisd"
  | Andps -> "andps"
  | Andpd -> "andpd"
  | Andnps -> "andnps"
  | Orps -> "orps"
  | Orpd -> "orpd"
  | Xorps -> "xorps"
  | Xorpd -> "xorpd"
  | Pand -> "pand"
  | Por -> "por"
  | Pxor -> "pxor"
  | Paddd -> "paddd"
  | Paddq -> "paddq"
  | Psubd -> "psubd"
  | Psubq -> "psubq"
  | Addps -> "addps"
  | Addpd -> "addpd"
  | Subps -> "subps"
  | Subpd -> "subpd"
  | Mulps -> "mulps"
  | Mulpd -> "mulpd"
  | Divps -> "divps"
  | Divpd -> "divpd"
  | Minps -> "minps"
  | Maxps -> "maxps"
  | Shufps -> "shufps"
  | Pshufd -> "pshufd"
  | Pshuflw -> "pshuflw"
  | Punpckldq -> "punpckldq"
  | Punpcklqdq -> "punpcklqdq"
  | Unpcklps -> "unpcklps"
  | Unpcklpd -> "unpcklpd"
  | Pslld -> "pslld"
  | Psrld -> "psrld"
  | Psllq -> "psllq"
  | Psrlq -> "psrlq"
  | Cvtss2sd -> "cvtss2sd"
  | Cvtsd2ss -> "cvtsd2ss"
  | Cvtsi2sd w -> "cvtsi2sd" ^ w_suffix w
  | Cvtsi2ss w -> "cvtsi2ss" ^ w_suffix w
  | Cvttsd2si w -> "cvttsd2si" ^ w_suffix w
  | Cvttss2si w -> "cvttss2si" ^ w_suffix w
  | Cvtsd2si w -> "cvtsd2si" ^ w_suffix w
  | Roundsd -> "roundsd"
  | Roundss -> "roundss"
  | Vaddss -> "vaddss"
  | Vaddsd -> "vaddsd"
  | Vsubss -> "vsubss"
  | Vsubsd -> "vsubsd"
  | Vmulss -> "vmulss"
  | Vmulsd -> "vmulsd"
  | Vdivss -> "vdivss"
  | Vdivsd -> "vdivsd"
  | Vminss -> "vminss"
  | Vminsd -> "vminsd"
  | Vmaxss -> "vmaxss"
  | Vmaxsd -> "vmaxsd"
  | Vsqrtsd -> "vsqrtsd"
  | Vaddps -> "vaddps"
  | Vsubps -> "vsubps"
  | Vmulps -> "vmulps"
  | Vaddpd -> "vaddpd"
  | Vmulpd -> "vmulpd"
  | Vxorps -> "vxorps"
  | Vandps -> "vandps"
  | Vpshuflw -> "vpshuflw"
  | Vunpcklps -> "vunpcklps"
  | Vfmadd132sd -> "vfmadd132sd"
  | Vfmadd213sd -> "vfmadd213sd"
  | Vfmadd231sd -> "vfmadd231sd"
  | Vfmadd132ss -> "vfmadd132ss"
  | Vfmadd213ss -> "vfmadd213ss"
  | Vfmadd231ss -> "vfmadd231ss"
  | Vfnmadd213sd -> "vfnmadd213sd"
  | Vfnmadd231sd -> "vfnmadd231sd"
  | Vfmsub213sd -> "vfmsub213sd"

let widths = [ Reg.L; Reg.Q ]

let all =
  let with_w f = List.map f widths in
  List.concat
    [
      with_w (fun w -> Mov w);
      [ Movabs ];
      with_w (fun w -> Lea w);
      with_w (fun w -> Add w);
      with_w (fun w -> Sub w);
      with_w (fun w -> Imul w);
      with_w (fun w -> And w);
      with_w (fun w -> Or w);
      with_w (fun w -> Xor w);
      with_w (fun w -> Not w);
      with_w (fun w -> Neg w);
      with_w (fun w -> Inc w);
      with_w (fun w -> Dec w);
      with_w (fun w -> Shl w);
      with_w (fun w -> Shr w);
      with_w (fun w -> Sar w);
      with_w (fun w -> Cmp w);
      with_w (fun w -> Test w);
      List.concat_map (fun c -> with_w (fun w -> Cmov (c, w))) all_conds;
      List.map (fun c -> Setcc c) all_conds;
      [ Movss; Movsd; Movaps; Movups; Lddqu; Movq; Movd; Movlhps; Movhlps ];
      [ Addss; Addsd; Subss; Subsd; Mulss; Mulsd; Divss; Divsd ];
      [ Sqrtss; Sqrtsd; Minss; Minsd; Maxss; Maxsd ];
      [ Ucomiss; Ucomisd; Comiss; Comisd ];
      [ Andps; Andpd; Andnps; Orps; Orpd; Xorps; Xorpd; Pand; Por; Pxor ];
      [ Paddd; Paddq; Psubd; Psubq ];
      [ Addps; Addpd; Subps; Subpd; Mulps; Mulpd; Divps; Divpd; Minps; Maxps ];
      [ Shufps; Pshufd; Pshuflw; Punpckldq; Punpcklqdq; Unpcklps; Unpcklpd ];
      [ Pslld; Psrld; Psllq; Psrlq ];
      [ Cvtss2sd; Cvtsd2ss ];
      with_w (fun w -> Cvtsi2sd w);
      with_w (fun w -> Cvtsi2ss w);
      with_w (fun w -> Cvttsd2si w);
      with_w (fun w -> Cvttss2si w);
      with_w (fun w -> Cvtsd2si w);
      [ Roundsd; Roundss ];
      [ Vaddss; Vaddsd; Vsubss; Vsubsd; Vmulss; Vmulsd; Vdivss; Vdivsd ];
      [ Vminss; Vminsd; Vmaxss; Vmaxsd; Vsqrtsd ];
      [ Vaddps; Vsubps; Vmulps; Vaddpd; Vmulpd; Vxorps; Vandps ];
      [ Vpshuflw; Vunpcklps ];
      [ Vfmadd132sd; Vfmadd213sd; Vfmadd231sd ];
      [ Vfmadd132ss; Vfmadd213ss; Vfmadd231ss ];
      [ Vfnmadd213sd; Vfnmadd231sd; Vfmsub213sd ];
    ]

let by_name = Hashtbl.create 257

let () = List.iter (fun op -> Hashtbl.add by_name (to_string op) op) all

let all_of_string s = Hashtbl.find_all by_name s

let of_string s =
  match all_of_string s with
  | [] -> None
  | op :: _ -> Some op

let equal a b = Stdlib.compare a b = 0
let compare = Stdlib.compare
let pp ppf op = Format.pp_print_string ppf (to_string op)

let is_sse_scalar_f64 = function
  | Addsd | Subsd | Mulsd | Divsd | Sqrtsd | Minsd | Maxsd | Vaddsd | Vsubsd
  | Vmulsd | Vdivsd | Vminsd | Vmaxsd | Vsqrtsd | Vfmadd132sd | Vfmadd213sd
  | Vfmadd231sd | Vfnmadd213sd | Vfnmadd231sd | Vfmsub213sd ->
    true
  | _ -> false

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

(* The dense index, in [all] order: a match, so a new constructor cannot
   be missed, and no C call. *)
let w_index = function
  | Reg.L -> 0
  | Reg.Q -> 1

let cond_index = function
  | E -> 0
  | Ne -> 1
  | L -> 2
  | Le -> 3
  | G -> 4
  | Ge -> 5
  | B -> 6
  | Be -> 7
  | A -> 8
  | Ae -> 9
  | S -> 10
  | P -> 11

let index = function
  | Mov w -> 0 + w_index w
  | Movabs -> 2
  | Lea w -> 3 + w_index w
  | Add w -> 5 + w_index w
  | Sub w -> 7 + w_index w
  | Imul w -> 9 + w_index w
  | And w -> 11 + w_index w
  | Or w -> 13 + w_index w
  | Xor w -> 15 + w_index w
  | Not w -> 17 + w_index w
  | Neg w -> 19 + w_index w
  | Inc w -> 21 + w_index w
  | Dec w -> 23 + w_index w
  | Shl w -> 25 + w_index w
  | Shr w -> 27 + w_index w
  | Sar w -> 29 + w_index w
  | Cmp w -> 31 + w_index w
  | Test w -> 33 + w_index w
  | Cmov (c, w) -> 35 + (2 * cond_index c) + w_index w
  | Setcc c -> 59 + cond_index c
  | Movss -> 71
  | Movsd -> 72
  | Movaps -> 73
  | Movups -> 74
  | Lddqu -> 75
  | Movq -> 76
  | Movd -> 77
  | Movlhps -> 78
  | Movhlps -> 79
  | Addss -> 80
  | Addsd -> 81
  | Subss -> 82
  | Subsd -> 83
  | Mulss -> 84
  | Mulsd -> 85
  | Divss -> 86
  | Divsd -> 87
  | Sqrtss -> 88
  | Sqrtsd -> 89
  | Minss -> 90
  | Minsd -> 91
  | Maxss -> 92
  | Maxsd -> 93
  | Ucomiss -> 94
  | Ucomisd -> 95
  | Comiss -> 96
  | Comisd -> 97
  | Andps -> 98
  | Andpd -> 99
  | Andnps -> 100
  | Orps -> 101
  | Orpd -> 102
  | Xorps -> 103
  | Xorpd -> 104
  | Pand -> 105
  | Por -> 106
  | Pxor -> 107
  | Paddd -> 108
  | Paddq -> 109
  | Psubd -> 110
  | Psubq -> 111
  | Addps -> 112
  | Addpd -> 113
  | Subps -> 114
  | Subpd -> 115
  | Mulps -> 116
  | Mulpd -> 117
  | Divps -> 118
  | Divpd -> 119
  | Minps -> 120
  | Maxps -> 121
  | Shufps -> 122
  | Pshufd -> 123
  | Pshuflw -> 124
  | Punpckldq -> 125
  | Punpcklqdq -> 126
  | Unpcklps -> 127
  | Unpcklpd -> 128
  | Pslld -> 129
  | Psrld -> 130
  | Psllq -> 131
  | Psrlq -> 132
  | Cvtss2sd -> 133
  | Cvtsd2ss -> 134
  | Cvtsi2sd w -> 135 + w_index w
  | Cvtsi2ss w -> 137 + w_index w
  | Cvttsd2si w -> 139 + w_index w
  | Cvttss2si w -> 141 + w_index w
  | Cvtsd2si w -> 143 + w_index w
  | Roundsd -> 145
  | Roundss -> 146
  | Vaddss -> 147
  | Vaddsd -> 148
  | Vsubss -> 149
  | Vsubsd -> 150
  | Vmulss -> 151
  | Vmulsd -> 152
  | Vdivss -> 153
  | Vdivsd -> 154
  | Vminss -> 155
  | Vminsd -> 156
  | Vmaxss -> 157
  | Vmaxsd -> 158
  | Vsqrtsd -> 159
  | Vaddps -> 160
  | Vsubps -> 161
  | Vmulps -> 162
  | Vaddpd -> 163
  | Vmulpd -> 164
  | Vxorps -> 165
  | Vandps -> 166
  | Vpshuflw -> 167
  | Vunpcklps -> 168
  | Vfmadd132sd -> 169
  | Vfmadd213sd -> 170
  | Vfmadd231sd -> 171
  | Vfmadd132ss -> 172
  | Vfmadd213ss -> 173
  | Vfmadd231ss -> 174
  | Vfnmadd213sd -> 175
  | Vfnmadd231sd -> 176
  | Vfmsub213sd -> 177

let count = 178

(* [Hashtbl.hash] of every opcode, read by index: the values the
   polymorphic hash gives, without its C call per lookup. *)
let hashes =
  let a = Array.make count 0 in
  List.iter (fun op -> a.(index op) <- Hashtbl.hash op) all;
  a

let hash op = hashes.(index op)

let by_name = Hashtbl.create 257

let () = List.iter (fun op -> Hashtbl.add by_name (to_string op) op) all

let all_of_string s = Hashtbl.find_all by_name s

let of_string s =
  match all_of_string s with
  | [] -> None
  | op :: _ -> Some op

(* Structural equality without [Stdlib.compare]'s C call: constant
   constructors are immediates, equal exactly when physically equal, and
   the last arm names every constructor, so a new one cannot be missed. *)
let equal a b =
  a == b
  ||
  match a, b with
  | Mov w, Mov w' | Lea w, Lea w' | Add w, Add w' | Sub w, Sub w'
  | Imul w, Imul w' | And w, And w' | Or w, Or w' | Xor w, Xor w'
  | Not w, Not w' | Neg w, Neg w' | Inc w, Inc w' | Dec w, Dec w'
  | Shl w, Shl w' | Shr w, Shr w' | Sar w, Sar w' | Cmp w, Cmp w'
  | Test w, Test w' | Cvtsi2sd w, Cvtsi2sd w' | Cvtsi2ss w, Cvtsi2ss w'
  | Cvttsd2si w, Cvttsd2si w' | Cvttss2si w, Cvttss2si w'
  | Cvtsd2si w, Cvtsd2si w' ->
    w == w'
  | Cmov (c, w), Cmov (c', w') -> c == c' && w == w'
  | Setcc c, Setcc c' -> c == c'
  | ( Mov _ | Lea _ | Add _ | Sub _ | Imul _ | And _ | Or _ | Xor _ | Not _
  | Neg _ | Inc _ | Dec _ | Shl _ | Shr _ | Sar _ | Cmp _ | Test _
  | Cvtsi2sd _ | Cvtsi2ss _ | Cvttsd2si _ | Cvttss2si _ | Cvtsd2si _
  | Cmov _ | Setcc _ | Movabs | Movss | Movsd | Movaps | Movups | Lddqu
  | Movq | Movd | Movlhps | Movhlps | Addss | Addsd | Subss | Subsd | Mulss
  | Mulsd | Divss | Divsd | Sqrtss | Sqrtsd | Minss | Minsd | Maxss | Maxsd
  | Ucomiss | Ucomisd | Comiss | Comisd | Andps | Andpd | Andnps | Orps
  | Orpd | Xorps | Xorpd | Pand | Por | Pxor | Paddd | Paddq | Psubd | Psubq
  | Addps | Addpd | Subps | Subpd | Mulps | Mulpd | Divps | Divpd | Minps
  | Maxps | Shufps | Pshufd | Pshuflw | Punpckldq | Punpcklqdq | Unpcklps
  | Unpcklpd | Pslld | Psrld | Psllq | Psrlq | Cvtss2sd | Cvtsd2ss | Roundsd
  | Roundss | Vaddss | Vaddsd | Vsubss | Vsubsd | Vmulss | Vmulsd | Vdivss
  | Vdivsd | Vminss | Vminsd | Vmaxss | Vmaxsd | Vsqrtsd | Vaddps | Vsubps
  | Vmulps | Vaddpd | Vmulpd | Vxorps | Vandps | Vpshuflw | Vunpcklps
  | Vfmadd132sd | Vfmadd213sd | Vfmadd231sd | Vfmadd132ss | Vfmadd213ss
  | Vfmadd231ss | Vfnmadd213sd | Vfnmadd231sd | Vfmsub213sd ), _ ->
    false

let compare = Stdlib.compare
let pp ppf op = Format.pp_print_string ppf (to_string op)

let is_sse_scalar_f64 = function
  | Addsd | Subsd | Mulsd | Divsd | Sqrtsd | Minsd | Maxsd | Vaddsd | Vsubsd
  | Vmulsd | Vdivsd | Vminsd | Vmaxsd | Vsqrtsd | Vfmadd132sd | Vfmadd213sd
  | Vfmadd231sd | Vfnmadd213sd | Vfnmadd231sd | Vfmsub213sd ->
    true
  | _ -> false

(** Opcode catalogue of the modelled x86-64 subset.

    Roughly 150 opcode instances covering the instruction mix of the paper's
    benchmarks: general-purpose ALU and data movement (needed by the
    bit-manipulation idioms of the libimf kernels), SSE scalar and packed
    floating-point arithmetic, shuffles, converts, AVX three-operand forms,
    and fused multiply-add. *)

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
  (* General purpose *)
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
  (* SSE data movement *)
  | Movss
  | Movsd
  | Movaps
  | Movups
  | Lddqu
  | Movq
  | Movd
  | Movlhps
  | Movhlps
  (* Scalar floating point *)
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
  (* Packed logic and integer *)
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
  (* Packed floating point *)
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
  (* Shuffles and vector shifts *)
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
  (* Converts *)
  | Cvtss2sd
  | Cvtsd2ss
  | Cvtsi2sd of Reg.w
  | Cvtsi2ss of Reg.w
  | Cvttsd2si of Reg.w
  | Cvttss2si of Reg.w
  | Cvtsd2si of Reg.w
  | Roundsd
  | Roundss
  (* AVX three-operand *)
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
  (* Fused multiply-add: dst = ±(a*b) ± c, the digits naming the operand
     roles as in the Intel mnemonics *)
  | Vfmadd132sd
  | Vfmadd213sd
  | Vfmadd231sd
  | Vfmadd132ss
  | Vfmadd213ss
  | Vfmadd231ss
  | Vfnmadd213sd
  | Vfnmadd231sd
  | Vfmsub213sd

val cond_to_string : cond -> string
val all_conds : cond list

val to_string : t -> string
(** AT&T mnemonic, e.g. ["movl"], ["vfmadd213sd"]. *)

val of_string : string -> t option

val all_of_string : string -> t list
(** All opcodes sharing the mnemonic — AT&T reuses e.g. ["movq"] for both
    the GP move and the SSE move; the operand shape disambiguates. *)

val all : t list
(** Every opcode instance (width and condition variants expanded). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val is_sse_scalar_f64 : t -> bool
(** Scalar double-precision arithmetic (the ...sd family). *)

type mw = M32 | M64 | M128

type kind =
  | K_gp of Reg.w
  | K_xmm
  | K_imm8
  | K_imm32
  | K_imm64
  | K_mem of mw

let kind_matches kind operand =
  match kind, operand with
  | K_gp _, Operand.Gp _ -> true
  | K_xmm, Operand.Xmm _ -> true
  | K_imm8, Operand.Imm i -> Int64.compare i 0L >= 0 && Int64.compare i 255L <= 0
  | K_imm32, Operand.Imm i ->
    Int64.compare i (-2147483648L) >= 0 && Int64.compare i 2147483647L <= 0
  | K_imm64, Operand.Imm _ -> true
  | K_mem _, Operand.Mem _ -> true
  | (K_gp _ | K_xmm | K_imm8 | K_imm32 | K_imm64 | K_mem _), _ -> false

(* Shape shorthands.  AT&T order: sources first, destination last. *)

let rr w = [| K_gp w; K_gp w |]
let mr w m = [| K_mem m; K_gp w |]
let rm w m = [| K_gp w; K_mem m |]
let ir w = [| K_imm32; K_gp w |]
let mw_of_w = function
  | Reg.L -> M32
  | Reg.Q -> M64

let gp_alu w = [ rr w; mr w (mw_of_w w); rm w (mw_of_w w); ir w ]

let xx = [| K_xmm; K_xmm |]
let mx m = [| K_mem m; K_xmm |]
let xm m = [| K_xmm; K_mem m |]

let sse_scalar m = [ xx; mx m ]
let sse_packed = [ xx; mx M128 ]
let avx3 m = [ [| K_xmm; K_xmm; K_xmm |]; [| K_mem m; K_xmm; K_xmm |] ]
let shuffle = [ [| K_imm8; K_xmm; K_xmm |] ]
let vshift = [ [| K_imm8; K_xmm |] ]

(* Every list below is built once, at initialisation: [shapes] hands out
   the same lists on every call, so [position] (and with it
   [Instr.is_well_formed], which the search calls per proposal)
   allocates nothing, and [shape_of] only its [Some].  Callers must not
   mutate them. *)
let by_w f =
  let l = f Reg.L and q = f Reg.Q in
  function
  | Reg.L -> l
  | Reg.Q -> q

let mov = by_w (fun w ->
    [ rr w; mr w (mw_of_w w); rm w (mw_of_w w); ir w; [| K_imm32; K_mem (mw_of_w w) |] ])
let movabs = [ [| K_imm64; K_gp Reg.Q |] ]
let lea = by_w (fun w -> [ mr w M64 ])
let alu = by_w gp_alu
let imul = by_w (fun w -> [ rr w; mr w (mw_of_w w) ])
let unary = by_w (fun w -> [ [| K_gp w |] ])
let shift = by_w (fun w -> [ [| K_imm8; K_gp w |] ])
let compare = by_w (fun w -> [ rr w; ir w; mr w (mw_of_w w) ])
let cmov = imul
let setcc = [ [| K_gp Reg.L |] ]
let movss = [ xx; mx M32; xm M32 ]
let movsd = [ xx; mx M64; xm M64 ]
let movaps = [ xx; mx M128; xm M128 ]
let lddqu = [ mx M128 ]
let movq = [ xx; [| K_gp Reg.Q; K_xmm |]; [| K_xmm; K_gp Reg.Q |]; mx M64; xm M64 ]
let movd = [ [| K_gp Reg.L; K_xmm |]; [| K_xmm; K_gp Reg.L |] ]
let only_xx = [ xx ]
let sse_scalar32 = sse_scalar M32
let sse_scalar64 = sse_scalar M64
let cvtsi2 = by_w (fun w -> [ [| K_gp w; K_xmm |]; mx (mw_of_w w) ])
let cvt2si = by_w (fun w -> [ [| K_xmm; K_gp w |] ])
let round = [ [| K_imm8; K_xmm; K_xmm |] ]
let avx3_32 = avx3 M32
let avx3_64 = avx3 M64
let avx3_128 = avx3 M128
let vpshuflw = [ [| K_imm8; K_xmm; K_xmm |]; [| K_imm8; K_mem M128; K_xmm |] ]

let shapes : Opcode.t -> kind array list = function
  | Mov w -> mov w
  | Movabs -> movabs
  | Lea w -> lea w
  | Add w | Sub w | And w | Or w | Xor w -> alu w
  | Imul w -> imul w
  | Not w | Neg w | Inc w | Dec w -> unary w
  | Shl w | Shr w | Sar w -> shift w
  | Cmp w | Test w -> compare w
  | Cmov (_, w) -> cmov w
  | Setcc _ -> setcc
  | Movss -> movss
  | Movsd -> movsd
  | Movaps | Movups -> movaps
  | Lddqu -> lddqu
  | Movq -> movq
  | Movd -> movd
  | Movlhps | Movhlps -> only_xx
  | Addss | Subss | Mulss | Divss | Sqrtss | Minss | Maxss -> sse_scalar32
  | Addsd | Subsd | Mulsd | Divsd | Sqrtsd | Minsd | Maxsd -> sse_scalar64
  | Ucomiss | Comiss -> sse_scalar32
  | Ucomisd | Comisd -> sse_scalar64
  | Andps | Andpd | Andnps | Orps | Orpd | Xorps | Xorpd | Pand | Por | Pxor
  | Paddd | Paddq | Psubd | Psubq ->
    sse_packed
  | Addps | Addpd | Subps | Subpd | Mulps | Mulpd | Divps | Divpd | Minps
  | Maxps ->
    sse_packed
  | Shufps | Pshufd | Pshuflw -> shuffle
  | Punpckldq | Punpcklqdq | Unpcklps | Unpcklpd -> only_xx
  | Pslld | Psrld | Psllq | Psrlq -> vshift
  | Cvtss2sd -> sse_scalar32
  | Cvtsd2ss -> sse_scalar64
  | Cvtsi2sd w | Cvtsi2ss w -> cvtsi2 w
  | Cvttsd2si w | Cvttss2si w | Cvtsd2si w -> cvt2si w
  | Roundsd | Roundss -> round
  | Vaddss | Vsubss | Vmulss | Vdivss | Vminss | Vmaxss -> avx3_32
  | Vaddsd | Vsubsd | Vmulsd | Vdivsd | Vminsd | Vmaxsd | Vsqrtsd -> avx3_64
  | Vaddps | Vsubps | Vmulps | Vaddpd | Vmulpd | Vxorps | Vandps | Vunpcklps ->
    avx3_128
  | Vpshuflw -> vpshuflw
  | Vfmadd132sd | Vfmadd213sd | Vfmadd231sd | Vfnmadd213sd | Vfnmadd231sd
  | Vfmsub213sd ->
    avx3_64
  | Vfmadd132ss | Vfmadd213ss | Vfmadd231ss -> avx3_32

let equal_kind a b =
  match a, b with
  | K_gp w1, K_gp w2 -> w1 = w2
  | K_xmm, K_xmm -> true
  | K_imm8, K_imm8 -> true
  | K_imm32, K_imm32 -> true
  | K_imm64, K_imm64 -> true
  | K_mem m1, K_mem m2 -> m1 = m2
  | (K_gp _ | K_xmm | K_imm8 | K_imm32 | K_imm64 | K_mem _), _ -> false

let equal_shape a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i k -> if not (equal_kind k b.(i)) then ok := false) a;
      !ok)

(* Plain loops over the operands: no closure, no ref. *)
let rec fits operands shape i =
  i >= Array.length operands
  || (kind_matches shape.(i) operands.(i) && fits operands shape (i + 1))

let rec first_fit operands = function
  | [] -> None
  | shape :: rest ->
    if Array.length shape = Array.length operands && fits operands shape 0 then
      Some shape
    else first_fit operands rest

let shape_of op operands = first_fit operands (shapes op)

let rec fit_position operands k = function
  | [] -> -1
  | shape :: rest ->
    if Array.length shape = Array.length operands && fits operands shape 0 then k
    else fit_position operands (k + 1) rest

let position op operands = fit_position operands 0 (shapes op)

let kind_to_string = function
  | K_gp Reg.L -> "r32"
  | K_gp Reg.Q -> "r64"
  | K_xmm -> "xmm"
  | K_imm8 -> "imm8"
  | K_imm32 -> "imm32"
  | K_imm64 -> "imm64"
  | K_mem M32 -> "m32"
  | K_mem M64 -> "m64"
  | K_mem M128 -> "m128"

type term =
  | Sym of string
  | Cst of int64
  | App of string * term list

let rec term_to_string = function
  | Sym s -> s
  | Cst v -> Printf.sprintf "0x%Lx" v
  | App (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat ", " (List.map term_to_string args))

let commutative = function
  | "addss" | "mulss" | "addsd" | "mulsd" | "minss" | "maxss" | "and32"
  | "or32" | "xor32" | "and64" | "or64" | "xor64" ->
    true
  | _ -> false

let rec compare_term a b =
  match a, b with
  | Sym x, Sym y -> String.compare x y
  | Cst x, Cst y -> Int64.compare x y
  | App (f, xs), App (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else compare_terms xs ys
  | Sym _, (Cst _ | App _) -> -1
  | Cst _, App _ -> -1
  | Cst _, Sym _ -> 1
  | App _, (Sym _ | Cst _) -> 1

and compare_terms xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare_term x y in
    if c <> 0 then c else compare_terms xs' ys'

let rec normalize t =
  match t with
  | Sym _ | Cst _ -> t
  | App (f, args) ->
    let args = List.map normalize args in
    (match f, args with
     (* pack64(lo32 t, hi32 t) = t *)
     | "pack64", [ App ("lo32", [ a ]); App ("hi32", [ b ]) ]
       when compare_term a b = 0 ->
       a
     | "lo32", [ App ("pack64", [ lo; _ ]) ] -> lo
     | "hi32", [ App ("pack64", [ _; hi ]) ] -> hi
     | "lo32", [ Cst v ] -> Cst (Int64.logand v 0xffff_ffffL)
     | "hi32", [ Cst v ] -> Cst (Int64.shift_right_logical v 32)
     | "pack64", [ Cst lo; Cst hi ] ->
       Cst (Int64.logor (Int64.logand lo 0xffff_ffffL) (Int64.shift_left hi 32))
     | ("xor32" | "xor64"), [ a; b ] when compare_term a b = 0 -> Cst 0L
     | "and32", [ Cst a; Cst b ] -> Cst (Int64.logand a b)
     | "or32", [ Cst a; Cst b ] -> Cst (Int64.logor a b)
     | "xor32", [ Cst a; Cst b ] -> Cst (Int64.logxor a b)
     | "and64", [ Cst a; Cst b ] -> Cst (Int64.logand a b)
     | "or64", [ Cst a; Cst b ] -> Cst (Int64.logor a b)
     | "xor64", [ Cst a; Cst b ] -> Cst (Int64.logxor a b)
     (* GP shifts with both operands concrete fold with the hardware's
        count masking (63 for 64-bit, 31 for 32-bit forms). *)
     | "shl64", [ Cst a; Cst c ] ->
       let c = Int64.to_int c land 63 in
       Cst (if c = 0 then a else Int64.shift_left a c)
     | "shr64", [ Cst a; Cst c ] ->
       let c = Int64.to_int c land 63 in
       Cst (if c = 0 then a else Int64.shift_right_logical a c)
     | "sar64", [ Cst a; Cst c ] ->
       let c = Int64.to_int c land 63 in
       Cst (if c = 0 then a else Int64.shift_right a c)
     | "shl32", [ Cst a; Cst c ] ->
       let c = Int64.to_int c land 31 in
       Cst (Int64.logand (if c = 0 then a else Int64.shift_left a c) 0xffff_ffffL)
     | "shr32", [ Cst a; Cst c ] ->
       let c = Int64.to_int c land 31 in
       let a = Int64.logand a 0xffff_ffffL in
       Cst (if c = 0 then a else Int64.shift_right_logical a c)
     | "add", [ Cst a; Cst b ] -> Cst (Int64.add a b)
     | "sub", [ Cst a; Cst b ] -> Cst (Int64.sub a b)
     | _, _ ->
       if commutative f then App (f, List.sort compare_term args)
       else App (f, args))

let equal_term a b = compare_term (normalize a) (normalize b) = 0

(* ----- symbolic machine ----- *)

type gpval =
  | Ptr of string * int  (** symbolic base plus concrete byte offset *)
  | Val of term

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type state = {
  gp : gpval array;
  lanes : term array;  (** 4 dword lanes per xmm: index 4*xmm + lane *)
  mutable mem : ((string * int) * term) list;  (** 32-bit cells *)
}

let fresh_cell state base off =
  match List.assoc_opt (base, off) state.mem with
  | Some t -> t
  | None ->
    let t = Sym (Printf.sprintf "%s[%d]" base off) in
    state.mem <- ((base, off), t) :: state.mem;
    t

let store_cell state base off t =
  state.mem <- ((base, off), t) :: List.remove_assoc (base, off) state.mem

let lane state x k = state.lanes.((4 * Reg.xmm_index x) + k)
let set_lane state x k t = state.lanes.((4 * Reg.xmm_index x) + k) <- t

let addr_of state (m : Operand.mem) =
  let base =
    match m.Operand.base with
    | None -> unsupported "memory operand without base"
    | Some r ->
      (match state.gp.(Reg.gp_index r) with
       | Ptr (s, off) -> (s, off)
       | Val _ -> unsupported "memory access through a non-pointer register")
  in
  if m.Operand.index <> None then unsupported "indexed addressing";
  let s, off = base in
  let total = off + m.Operand.disp in
  if total mod 4 <> 0 then unsupported "unaligned symbolic memory cell";
  (s, total)

let load32 state (o : Operand.t) =
  match o with
  | Operand.Xmm x -> lane state x 0
  | Operand.Mem m ->
    let s, off = addr_of state m in
    fresh_cell state s off
  | Operand.Gp r ->
    (match state.gp.(Reg.gp_index r) with
     | Val (Cst v) -> Cst (Int64.logand v 0xffff_ffffL)
     | Val t -> App ("lo32", [ t ])
     | Ptr _ -> unsupported "pointer moved into float context")
  | Operand.Imm _ -> unsupported "immediate in float context"

(* 128-bit load as four dword lanes. *)
let load128 state (o : Operand.t) =
  match o with
  | Operand.Xmm x -> Array.init 4 (fun k -> lane state x k)
  | Operand.Mem m ->
    let s, off = addr_of state m in
    Array.init 4 (fun k -> fresh_cell state s (off + (4 * k)))
  | Operand.Gp _ | Operand.Imm _ -> unsupported "bad 128-bit source"

let load64_pair state (o : Operand.t) =
  match o with
  | Operand.Xmm x -> (lane state x 0, lane state x 1)
  | Operand.Mem m ->
    let s, off = addr_of state m in
    (fresh_cell state s off, fresh_cell state s (off + 4))
  | Operand.Gp r ->
    (match state.gp.(Reg.gp_index r) with
     | Val t -> (App ("lo32", [ t ]), App ("hi32", [ t ]))
     | Ptr _ -> unsupported "pointer moved into xmm")
  | Operand.Imm _ -> unsupported "immediate as 64-bit source"

let dst_xmm (o : Operand.t) =
  match o with
  | Operand.Xmm x -> x
  | _ -> unsupported "expected xmm destination"

let pack64 lo hi = normalize (App ("pack64", [ lo; hi ]))

(* The low quad of xmm [d] ← the 64-bit term [r]. *)
let set_f64 state d r =
  set_lane state d 0 (App ("lo32", [ r ]));
  set_lane state d 1 (App ("hi32", [ r ]))

(* A scalar float opcode's source: its low dword, or its low quad as two
   dwords for the binary64 ones. *)
let load_scalar state op o =
  if Opcode.is_sse_scalar_f64 op then
    let lo, hi = load64_pair state o in
    [| lo; hi |]
  else [| load32 state o |]

(* The SSE form [op s, d] of a scalar float opcode, on its loaded source
   [s]; only the low lane (or quad) of xmm [d] changes. *)
let scalar state op s d =
  let f32 name = set_lane state d 0 (App (name, [ lane state d 0; s.(0) ])) in
  let f64 name =
    set_f64 state d
      (App (name, [ pack64 (lane state d 0) (lane state d 1); pack64 s.(0) s.(1) ]))
  in
  match op with
  | Opcode.Addss | Opcode.Vaddss -> f32 "addss"
  | Opcode.Subss | Opcode.Vsubss -> f32 "subss"
  | Opcode.Mulss | Opcode.Vmulss -> f32 "mulss"
  | Opcode.Divss | Opcode.Vdivss -> f32 "divss"
  | Opcode.Minss | Opcode.Vminss -> f32 "minss"
  | Opcode.Maxss | Opcode.Vmaxss -> f32 "maxss"
  | Opcode.Sqrtss -> set_lane state d 0 (App ("sqrtss", [ s.(0) ]))
  | Opcode.Addsd | Opcode.Vaddsd -> f64 "addsd"
  | Opcode.Subsd | Opcode.Vsubsd -> f64 "subsd"
  | Opcode.Mulsd | Opcode.Vmulsd -> f64 "mulsd"
  | Opcode.Divsd | Opcode.Vdivsd -> f64 "divsd"
  | Opcode.Sqrtsd | Opcode.Vsqrtsd ->
    set_f64 state d (App ("sqrtsd", [ pack64 s.(0) s.(1) ]))
  | op -> unsupported "opcode %s" (Opcode.to_string op)

let step state (i : Instr.t) =
  let ops = i.Instr.operands in
  let n = Array.length ops in
  let src k = ops.(k) in
  let dst () = ops.(n - 1) in
  match i.Instr.op with
  | Opcode.Mov w ->
    (match src 0, dst () with
     | Operand.Imm v, Operand.Gp d ->
       let v = (match w with Reg.Q -> v | Reg.L -> Int64.logand v 0xffff_ffffL) in
       state.gp.(Reg.gp_index d) <- Val (Cst v)
     | Operand.Gp s, Operand.Gp d ->
       state.gp.(Reg.gp_index d) <- state.gp.(Reg.gp_index s)
     | _ -> unsupported "mov form")
  | Opcode.Movabs ->
    (match src 0, dst () with
     | Operand.Imm v, Operand.Gp d -> state.gp.(Reg.gp_index d) <- Val (Cst v)
     | _ -> unsupported "movabs form")
  | Opcode.Add w ->
    ignore w;
    (match src 0, dst () with
     | Operand.Imm v, Operand.Gp d ->
       (match state.gp.(Reg.gp_index d) with
        | Ptr (s, off) -> state.gp.(Reg.gp_index d) <- Ptr (s, off + Int64.to_int v)
        | Val t -> state.gp.(Reg.gp_index d) <- Val (App ("add", [ t; Cst v ])))
     | _ -> unsupported "add form")
  | Opcode.Sub _ ->
    (match src 0, dst () with
     | Operand.Imm v, Operand.Gp d ->
       (match state.gp.(Reg.gp_index d) with
        | Ptr (s, off) -> state.gp.(Reg.gp_index d) <- Ptr (s, off - Int64.to_int v)
        | Val t -> state.gp.(Reg.gp_index d) <- Val (App ("sub", [ t; Cst v ])))
     | _ -> unsupported "sub form")
  | Opcode.Movd ->
    (match src 0, dst () with
     | Operand.Gp s, Operand.Xmm d ->
       let t =
         match state.gp.(Reg.gp_index s) with
         | Val (Cst v) -> Cst (Int64.logand v 0xffff_ffffL)
         | Val t -> App ("lo32", [ t ])
         | Ptr _ -> unsupported "movd of a pointer"
       in
       set_lane state d 0 t;
       for k = 1 to 3 do
         set_lane state d k (Cst 0L)
       done
     | Operand.Xmm s, Operand.Gp d ->
       state.gp.(Reg.gp_index d) <- Val (lane state s 0)
     | _ -> unsupported "movd form")
  | Opcode.Movq ->
    (match src 0, dst () with
     | (Operand.Xmm _ | Operand.Mem _), Operand.Xmm d ->
       let lo, hi = load64_pair state (src 0) in
       set_lane state d 0 lo;
       set_lane state d 1 hi;
       set_lane state d 2 (Cst 0L);
       set_lane state d 3 (Cst 0L)
     | Operand.Xmm s, Operand.Mem m ->
       let b, off = addr_of state m in
       store_cell state b off (lane state s 0);
       store_cell state b (off + 4) (lane state s 1)
     | Operand.Gp s, Operand.Xmm d ->
       (match state.gp.(Reg.gp_index s) with
        | Val t ->
          set_lane state d 0 (App ("lo32", [ t ]));
          set_lane state d 1 (App ("hi32", [ t ]));
          set_lane state d 2 (Cst 0L);
          set_lane state d 3 (Cst 0L)
        | Ptr _ -> unsupported "movq of a pointer")
     | Operand.Xmm s, Operand.Gp d ->
       state.gp.(Reg.gp_index d) <-
         Val (pack64 (lane state s 0) (lane state s 1))
     | _ -> unsupported "movq form")
  | Opcode.Movss ->
    (match src 0, dst () with
     | Operand.Xmm s, Operand.Xmm d -> set_lane state d 0 (lane state s 0)
     | Operand.Mem m, Operand.Xmm d ->
       let b, off = addr_of state m in
       set_lane state d 0 (fresh_cell state b off);
       for k = 1 to 3 do
         set_lane state d k (Cst 0L)
       done
     | Operand.Xmm s, Operand.Mem m ->
       let b, off = addr_of state m in
       store_cell state b off (lane state s 0)
     | _ -> unsupported "movss form")
  | Opcode.Movsd ->
    (match src 0, dst () with
     | Operand.Xmm s, Operand.Xmm d ->
       set_lane state d 0 (lane state s 0);
       set_lane state d 1 (lane state s 1)
     | Operand.Mem _, Operand.Xmm d ->
       let lo, hi = load64_pair state (src 0) in
       set_lane state d 0 lo;
       set_lane state d 1 hi;
       set_lane state d 2 (Cst 0L);
       set_lane state d 3 (Cst 0L)
     | Operand.Xmm s, Operand.Mem m ->
       let b, off = addr_of state m in
       store_cell state b off (lane state s 0);
       store_cell state b (off + 4) (lane state s 1)
     | _ -> unsupported "movsd form")
  | Opcode.Movaps | Opcode.Movups | Opcode.Lddqu ->
    (match src 0, dst () with
     | (Operand.Xmm _ | Operand.Mem _), Operand.Xmm d ->
       let l = load128 state (src 0) in
       Array.iteri (fun k t -> set_lane state d k t) l
     | Operand.Xmm s, Operand.Mem m ->
       let b, off = addr_of state m in
       for k = 0 to 3 do
         store_cell state b (off + (4 * k)) (lane state s k)
       done
     | _ -> unsupported "128-bit move form")
  | Opcode.Addss | Opcode.Subss | Opcode.Mulss | Opcode.Divss | Opcode.Minss
  | Opcode.Maxss | Opcode.Sqrtss | Opcode.Addsd | Opcode.Subsd | Opcode.Mulsd
  | Opcode.Divsd | Opcode.Sqrtsd ->
    let s = load_scalar state i.Instr.op (src 0) in
    scalar state i.Instr.op s (dst_xmm (dst ()))
  | Opcode.Vaddss | Opcode.Vsubss | Opcode.Vmulss | Opcode.Vdivss
  | Opcode.Vminss | Opcode.Vmaxss | Opcode.Vaddsd | Opcode.Vsubsd
  | Opcode.Vmulsd | Opcode.Vdivsd | Opcode.Vsqrtsd ->
    (* op src2, src1, dst: dst ← src1, then the SSE form on src2, which
       is read first in case dst is its register *)
    let s = load_scalar state i.Instr.op (src 0) in
    let s1 = dst_xmm (src 1) and d = dst_xmm (dst ()) in
    for k = 0 to 3 do
      set_lane state d k (lane state s1 k)
    done;
    scalar state i.Instr.op s d
  | Opcode.Addps | Opcode.Subps | Opcode.Mulps ->
    let op =
      match i.Instr.op with
      | Opcode.Addps -> "addss"
      | Opcode.Subps -> "subss"
      | _ -> "mulss"
    in
    let s = load128 state (src 0) in
    let d = dst_xmm (dst ()) in
    for k = 0 to 3 do
      set_lane state d k (App (op, [ lane state d k; s.(k) ]))
    done
  | Opcode.Andps | Opcode.Orps | Opcode.Xorps | Opcode.Pand | Opcode.Por
  | Opcode.Pxor ->
    let op =
      match i.Instr.op with
      | Opcode.Andps | Opcode.Pand -> "and32"
      | Opcode.Orps | Opcode.Por -> "or32"
      | _ -> "xor32"
    in
    let s = load128 state (src 0) in
    let d = dst_xmm (dst ()) in
    for k = 0 to 3 do
      set_lane state d k (normalize (App (op, [ lane state d k; s.(k) ])))
    done
  | Opcode.Pshufd ->
    (match src 0, src 1, dst () with
     | Operand.Imm sel, Operand.Xmm s, Operand.Xmm d ->
       let sel = Int64.to_int sel in
       let picked = Array.init 4 (fun k -> lane state s ((sel lsr (2 * k)) land 3)) in
       Array.iteri (fun k t -> set_lane state d k t) picked
     | _ -> unsupported "pshufd form")
  | Opcode.Shufps ->
    (match src 0, src 1, dst () with
     | Operand.Imm sel, Operand.Xmm s, Operand.Xmm d ->
       let sel = Int64.to_int sel in
       let l0 = lane state d ((sel lsr 0) land 3) in
       let l1 = lane state d ((sel lsr 2) land 3) in
       let l2 = lane state s ((sel lsr 4) land 3) in
       let l3 = lane state s ((sel lsr 6) land 3) in
       set_lane state d 0 l0;
       set_lane state d 1 l1;
       set_lane state d 2 l2;
       set_lane state d 3 l3
     | _ -> unsupported "shufps form")
  | Opcode.Punpckldq | Opcode.Unpcklps ->
    let s = load128 state (src 0) in
    let d = dst_xmm (dst ()) in
    let d0 = lane state d 0 and d1 = lane state d 1 in
    set_lane state d 0 d0;
    set_lane state d 1 s.(0);
    set_lane state d 2 d1;
    set_lane state d 3 s.(1)
  | Opcode.Punpcklqdq | Opcode.Unpcklpd ->
    let s = load128 state (src 0) in
    let d = dst_xmm (dst ()) in
    set_lane state d 2 s.(0);
    set_lane state d 3 s.(1)
  | Opcode.Vunpcklps ->
    (* dst ← interleave of the low dwords of s1 (src 1) and s2 (src 0) *)
    let s2 = load128 state (src 0) in
    let s1 = load128 state (src 1) in
    let d = dst_xmm (dst ()) in
    set_lane state d 0 s1.(0);
    set_lane state d 1 s2.(0);
    set_lane state d 2 s1.(1);
    set_lane state d 3 s2.(1)
  | Opcode.Pslld | Opcode.Psrld ->
    (match src 0 with
     | Operand.Imm c ->
       let op = if i.Instr.op = Opcode.Pslld then "shl32" else "shr32" in
       let d = dst_xmm (dst ()) in
       for k = 0 to 3 do
         let t =
           if Int64.to_int c >= 32 then Cst 0L
           else normalize (App (op, [ lane state d k; Cst c ]))
         in
         set_lane state d k t
       done
     | _ -> unsupported "packed dword shift by non-immediate")
  | Opcode.Psllq | Opcode.Psrlq ->
    (match src 0 with
     | Operand.Imm c ->
       let op = if i.Instr.op = Opcode.Psllq then "shl64" else "shr64" in
       let d = dst_xmm (dst ()) in
       let half base =
         if Int64.to_int c >= 64 then Cst 0L
         else
           (* the hardware zeroes at count 64, while the GP form masks the
              count to 63, so only in-range counts reuse the GP fold *)
           normalize
             (App (op, [ pack64 (lane state d base) (lane state d (base + 1)); Cst c ]))
       in
       let lo = half 0 and hi = half 2 in
       set_lane state d 0 (normalize (App ("lo32", [ lo ])));
       set_lane state d 1 (normalize (App ("hi32", [ lo ])));
       set_lane state d 2 (normalize (App ("lo32", [ hi ])));
       set_lane state d 3 (normalize (App ("hi32", [ hi ])))
     | _ -> unsupported "packed qword shift by non-immediate")
  | Opcode.Movlhps ->
    let s = dst_xmm (src 0) in
    let d = dst_xmm (dst ()) in
    set_lane state d 2 (lane state s 0);
    set_lane state d 3 (lane state s 1)
  | Opcode.Movhlps ->
    let s = dst_xmm (src 0) in
    let d = dst_xmm (dst ()) in
    set_lane state d 0 (lane state s 2);
    set_lane state d 1 (lane state s 3)
  | Opcode.Vpshuflw | Opcode.Pshuflw ->
    (* Word-level shuffle; representable when each destination dword takes
       an aligned word pair (2j, 2j+1). *)
    let sel, src_ops, d =
      match i.Instr.op, src 0, src 1, dst () with
      | _, Operand.Imm sel, (Operand.Xmm _ as s), Operand.Xmm d ->
        (Int64.to_int sel, s, d)
      | _ -> unsupported "pshuflw form"
    in
    let s = load128 state src_ops in
    let dword k =
      let w0 = (sel lsr (4 * k)) land 3 in
      let w1 = (sel lsr ((4 * k) + 2)) land 3 in
      if w0 land 1 = 0 && w1 = w0 + 1 then s.(w0 / 2)
      else App (Printf.sprintf "words_%d_%d" w0 w1, [ s.(0); s.(1) ])
    in
    set_lane state d 0 (dword 0);
    set_lane state d 1 (dword 1)
  | Opcode.Shl w | Opcode.Shr w | Opcode.Sar w ->
    (match src 0, dst () with
     | Operand.Imm c, Operand.Gp d ->
       let name =
         (match i.Instr.op with
          | Opcode.Shl _ -> "shl"
          | Opcode.Shr _ -> "shr"
          | _ -> "sar")
         ^ (match w with Reg.Q -> "64" | Reg.L -> "32")
       in
       (match state.gp.(Reg.gp_index d) with
        | Val t ->
          state.gp.(Reg.gp_index d) <- Val (normalize (App (name, [ t; Cst c ])))
        | Ptr _ -> unsupported "shift of a pointer")
     | _ -> unsupported "shift form")
  | Opcode.And w | Opcode.Or w | Opcode.Xor w ->
    let name =
      (match i.Instr.op with
       | Opcode.And _ -> "and"
       | Opcode.Or _ -> "or"
       | _ -> "xor")
      ^ (match w with Reg.Q -> "64" | Reg.L -> "32")
    in
    (match src 0, dst () with
     | Operand.Gp s, Operand.Gp d
       when i.Instr.op = Opcode.Xor w && Reg.gp_index s = Reg.gp_index d ->
       (* the xor-zeroing idiom clears even pointer-valued registers *)
       state.gp.(Reg.gp_index d) <- Val (Cst 0L)
     | src_o, Operand.Gp d ->
       (match w with
        | Reg.L -> unsupported "32-bit gp logical (upper-half zeroing)"
        | Reg.Q ->
          let s_term =
            match src_o with
            | Operand.Imm v -> Cst v
            | Operand.Gp s ->
              (match state.gp.(Reg.gp_index s) with
               | Val t -> t
               | Ptr _ -> unsupported "logical on a pointer")
            | _ -> unsupported "gp logical form"
          in
          (match state.gp.(Reg.gp_index d) with
           | Val t ->
             state.gp.(Reg.gp_index d) <-
               Val (normalize (App (name, [ t; s_term ])))
           | Ptr _ -> unsupported "logical on a pointer"))
     | _ -> unsupported "gp logical form")
  | Opcode.Cvtsi2sd w | Opcode.Cvtsi2ss w ->
    (* int→float converts become uninterpreted width-tagged applications:
       sound for equivalence checking, opaque to the numeric tiers. *)
    (match src 0, dst () with
     | Operand.Gp s, Operand.Xmm d ->
       let t =
         match state.gp.(Reg.gp_index s) with
         | Val t -> t
         | Ptr _ -> unsupported "convert of a pointer"
       in
       let suffix = (match w with Reg.Q -> "64" | Reg.L -> "32") in
       (match i.Instr.op with
        | Opcode.Cvtsi2sd _ -> set_f64 state d (App ("cvtsi2sd" ^ suffix, [ t ]))
        | _ -> set_lane state d 0 (App ("cvtsi2ss" ^ suffix, [ t ])))
     | _ -> unsupported "cvtsi2sd/ss form")
  | Opcode.Cvtsd2si w | Opcode.Cvttsd2si w ->
    (match dst () with
     | Operand.Gp d ->
       let lo, hi = load64_pair state (src 0) in
       let base =
         match i.Instr.op with
         | Opcode.Cvtsd2si _ -> "cvtsd2si"
         | _ -> "cvttsd2si"
       in
       let suffix = (match w with Reg.Q -> "64" | Reg.L -> "32") in
       state.gp.(Reg.gp_index d) <-
         Val (App (base ^ suffix, [ pack64 lo hi ]))
     | _ -> unsupported "cvtsd2si form")
  | Opcode.Cvttss2si w ->
    (match dst () with
     | Operand.Gp d ->
       let s = load32 state (src 0) in
       let suffix = (match w with Reg.Q -> "64" | Reg.L -> "32") in
       state.gp.(Reg.gp_index d) <- Val (App ("cvttss2si" ^ suffix, [ s ]))
     | _ -> unsupported "cvttss2si form")
  | Opcode.Cvtss2sd ->
    (match dst () with
     | Operand.Xmm d ->
       set_f64 state d (App ("cvtss2sd", [ load32 state (src 0) ]))
     | _ -> unsupported "cvtss2sd form")
  | Opcode.Cvtsd2ss ->
    (match dst () with
     | Operand.Xmm d ->
       let lo, hi = load64_pair state (src 0) in
       set_lane state d 0 (App ("cvtsd2ss", [ pack64 lo hi ]))
     | _ -> unsupported "cvtsd2ss form")
  | op -> unsupported "opcode %s" (Opcode.to_string op)

(* initial state from a spec: pointer-valued fixed GP inputs become
   symbolic bases; float inputs become input symbols. *)
let initial_state (spec : Sandbox.Spec.t) =
  let state =
    {
      gp = Array.init 16 (fun k -> Ptr (Reg.gp_name Reg.Q (Reg.gp_of_index k), 0));
      lanes = Array.init 64 (fun k -> Sym (Printf.sprintf "init_xmm%d_%d" (k / 4) (k mod 4)));
      mem = [];
    }
  in
  (* Unnamed xmm lanes get unique symbols so accidental reads of dead
     registers never alias; named inputs overwrite them below. *)
  List.iteri
    (fun idx fi ->
      let name = Printf.sprintf "in%d" idx in
      match fi with
      | Sandbox.Spec.Fin_xmm_f64 (r, _) ->
        set_lane state r 0 (App ("lo32", [ Sym name ]));
        set_lane state r 1 (App ("hi32", [ Sym name ]))
      | Sandbox.Spec.Fin_xmm_f32 (r, _) -> set_lane state r 0 (Sym name)
      | Sandbox.Spec.Fin_xmm_f32_hi (r, _) -> set_lane state r 1 (Sym name)
      | Sandbox.Spec.Fin_mem_f32 (_, _) | Sandbox.Spec.Fin_mem_f64 (_, _) ->
        (* Memory float inputs are reachable only through fixed pointers;
           the fresh-cell mechanism names them by address. *)
        ())
    spec.Sandbox.Spec.float_inputs;
  state

let read_outputs (spec : Sandbox.Spec.t) state =
  List.map
    (fun o ->
      match o with
      | Sandbox.Spec.Out_xmm_f64 r -> pack64 (lane state r 0) (lane state r 1)
      | Sandbox.Spec.Out_xmm_f32 r -> lane state r 0
      | Sandbox.Spec.Out_xmm_f32_hi r -> lane state r 1
      | Sandbox.Spec.Out_gp r ->
        (match state.gp.(Reg.gp_index r) with
         | Val t -> t
         | Ptr (s, off) -> App ("ptr", [ Sym s; Cst (Int64.of_int off) ])))
    spec.Sandbox.Spec.outputs
  |> Array.of_list

let exec spec program =
  match
    let state = initial_state spec in
    List.iter (fun i -> step state i) (Program.instrs program);
    read_outputs spec state
  with
  | outputs -> Ok (Array.map normalize outputs)
  | exception Unsupported msg -> Error msg

(* ----- one verification obligation ----- *)

type prec =
  | P32
  | P64

let output_prec = function
  | Sandbox.Spec.Out_xmm_f32 _ | Sandbox.Spec.Out_xmm_f32_hi _ -> P32
  | Sandbox.Spec.Out_xmm_f64 _ | Sandbox.Spec.Out_gp _ -> P64

type pair = {
  target : term array;
  rewrite : term array;
  precs : prec array;
}

let exec_pair spec ~rewrite =
  match exec spec spec.Sandbox.Spec.program, exec spec rewrite with
  | Ok target, Ok rewrite ->
    let precs = Array.of_list (List.map output_prec spec.Sandbox.Spec.outputs) in
    Ok { target; rewrite; precs }
  | Error e, _ -> Error (Printf.sprintf "target: %s" e)
  | _, Error e -> Error (Printf.sprintf "rewrite: %s" e)

let same_output pair idx = compare_term pair.target.(idx) pair.rewrite.(idx) = 0

let bitwise_equal pair =
  Array.for_all2 (fun t r -> compare_term t r = 0) pair.target pair.rewrite

let equivalent spec ~rewrite = Result.map bitwise_equal (exec_pair spec ~rewrite)

(* ----- the float-operation vocabulary -----

   The one place that reads the float operations out of the terms [step]
   builds: the numeric tiers and the FPCore export see only [op1]/[op2]
   at a width, through [fold]. *)

type op1 =
  | Sqrt
  | Cvt

type op2 =
  | Add
  | Sub
  | Mul
  | Div
  | Min
  | Max

type fop =
  | Op1 of op1 * prec * term
  | Op2 of op2 * prec * term * term

let decode f args =
  let op1 op p =
    match args with
    | [ a ] -> Op1 (op, p, a)
    | _ -> unsupported "%s: bad arity" f
  in
  let op2 op p =
    match args with
    | [ a; b ] -> Op2 (op, p, a, b)
    | _ -> unsupported "%s: bad arity" f
  in
  match f with
  | "addsd" -> op2 Add P64
  | "subsd" -> op2 Sub P64
  | "mulsd" -> op2 Mul P64
  | "divsd" -> op2 Div P64
  | "addss" -> op2 Add P32
  | "subss" -> op2 Sub P32
  | "mulss" -> op2 Mul P32
  | "divss" -> op2 Div P32
  | "minss" -> op2 Min P32
  | "maxss" -> op2 Max P32
  | "sqrtsd" -> op1 Sqrt P64
  | "sqrtss" -> op1 Sqrt P32
  | "cvtss2sd" -> op1 Cvt P64
  | "cvtsd2ss" -> op1 Cvt P32
  | _ -> unsupported "bit-level operation %s" f

type 'a algebra = {
  input : string -> 'a;
  const : float -> 'a;
  op1 : op1 -> prec -> 'a -> 'a;
  op2 : op2 -> prec -> 'a -> 'a -> 'a;
}

(* A constant stays raw bits until a width reads it: that of the
   operation consuming it, or the output's. *)
let const_at p v =
  match p with
  | P64 -> Int64.float_of_bits v
  | P32 -> Int32.float_of_bits (Int64.to_int32 v)

let rec fold alg p t =
  match t with
  | Sym name -> alg.input name
  | Cst v -> alg.const (const_at p v)
  | App (f, args) ->
    (match decode f args with
     | Op1 (op, q, a) ->
       let width =
         match op, q with
         | Cvt, P64 -> P32
         | Cvt, P32 -> P64
         | Sqrt, _ -> q
       in
       let a = fold alg width a in
       alg.op1 op q a
     | Op2 (op, q, a, b) ->
       let a = fold alg q a in
       let b = fold alg q b in
       alg.op2 op q a b)

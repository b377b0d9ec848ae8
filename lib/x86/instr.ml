type t = {
  op : Opcode.t;
  operands : Operand.t array;
}

let is_well_formed i = Shape.position i.op i.operands >= 0

let make op operands =
  let i = { op; operands = Array.of_list operands } in
  if not (is_well_formed i) then
    invalid_arg
      (Printf.sprintf "Instr.make: operands fit no shape of %s"
         (Opcode.to_string op));
  i

let make_unchecked op operands = { op; operands }

let gp_width i =
  match i.op with
  | Opcode.Mov w | Opcode.Lea w | Opcode.Add w | Opcode.Sub w | Opcode.Imul w
  | Opcode.And w | Opcode.Or w | Opcode.Xor w | Opcode.Not w | Opcode.Neg w
  | Opcode.Inc w | Opcode.Dec w | Opcode.Shl w | Opcode.Shr w | Opcode.Sar w
  | Opcode.Cmp w | Opcode.Test w | Opcode.Cmov (_, w) | Opcode.Cvtsi2sd w
  | Opcode.Cvtsi2ss w | Opcode.Cvttsd2si w | Opcode.Cvttss2si w
  | Opcode.Cvtsd2si w ->
    w
  | Opcode.Setcc _ -> Reg.L
  | _ -> Reg.Q

let rec operands_equal a b k =
  k < 0 || (Operand.equal a.(k) b.(k) && operands_equal a b (k - 1))

let equal a b =
  a == b
  || Opcode.equal a.op b.op
     && Array.length a.operands = Array.length b.operands
     && operands_equal a.operands b.operands (Array.length a.operands - 1)

(* FNV-1a's step over native ints, and a final avalanche so the low bits
   that index a direct-mapped cache depend on every input word. *)
let[@inline] mix h v = (h lxor v) * 0x100000001b3

let avalanche h =
  let h = (h lxor (h lsr 31)) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let hash i =
  let h = ref (mix 0x4bf29ce484222325 (Opcode.hash i.op)) in
  let ops = i.operands in
  for k = 0 to Array.length ops - 1 do
    match ops.(k) with
    | Operand.Gp r -> h := mix !h (2 + Reg.gp_index r)
    | Operand.Xmm r -> h := mix !h (32 + Reg.xmm_index r)
    | Operand.Imm v -> h := mix (mix !h 64) (Int64.to_int v)
    | Operand.Mem m ->
      h := mix !h 65;
      h :=
        mix !h
          (match m.Operand.base with
           | None -> 0
           | Some r -> 1 + Reg.gp_index r);
      (match m.Operand.index with
       | None -> h := mix !h 0
       | Some (r, s) -> h := mix (mix !h (1 + Reg.gp_index r)) s);
      h := mix !h m.Operand.disp
  done;
  avalanche !h

let to_string i =
  let w = gp_width i in
  let ops =
    Array.to_list i.operands
    |> List.map (Operand.to_string ~w)
    |> String.concat ", "
  in
  if String.length ops = 0 then Opcode.to_string i.op
  else Opcode.to_string i.op ^ " " ^ ops

let pp ppf i = Format.pp_print_string ppf (to_string i)

type slot =
  | Unused
  | Active of Instr.t

type t = { slots : slot array }

let of_instrs instrs =
  { slots = Array.of_list (List.map (fun i -> Active i) instrs) }

let with_padding extra instrs =
  if extra < 0 then invalid_arg "Program.with_padding: negative padding";
  let active = List.map (fun i -> Active i) instrs in
  { slots = Array.of_list (active @ List.init extra (fun _ -> Unused)) }

let instrs t =
  Array.to_list t.slots
  |> List.filter_map (function
       | Unused -> None
       | Active i -> Some i)

let length t =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Unused -> acc
      | Active _ -> acc + 1)
    0 t.slots

let slot_count t = Array.length t.slots

let copy t = { slots = Array.copy t.slots }

(* 64-bit FNV-1a over a canonical encoding of the slots.  Quality only
   affects the cost-cache hit rate — lookups verify with [equal] — but the
   encoding is injective per slot up to int64 mixing, so collisions are
   ~2^-64 per pair.  The running state stays in one local so the loop
   allocates no boxed int64. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let[@inline] mix h x = Int64.mul (Int64.logxor h x) fnv_prime
let[@inline] mix_int h i = mix h (Int64.of_int i)

let[@inline] mix_operand h (o : Operand.t) =
  match o with
  | Operand.Gp r -> mix_int h (2 + Reg.gp_index r)
  | Operand.Xmm r -> mix_int h (32 + Reg.xmm_index r)
  | Operand.Imm v -> mix (mix_int h 64) v
  | Operand.Mem m ->
    let h = mix_int h 65 in
    let h =
      mix_int h
        (match m.Operand.base with
         | None -> 0
         | Some r -> 1 + Reg.gp_index r)
    in
    let h =
      match m.Operand.index with
      | None -> mix_int h 0
      | Some (r, s) -> mix_int (mix_int h (1 + Reg.gp_index r)) s
    in
    mix_int h m.Operand.disp

let hash t =
  let h = ref fnv_offset in
  for s = 0 to Array.length t.slots - 1 do
    match t.slots.(s) with
    | Unused -> h := mix_int !h 0
    | Active i ->
      h := mix_int !h (1 + Hashtbl.hash i.Instr.op);
      let ops = i.Instr.operands in
      for k = 0 to Array.length ops - 1 do
        h := mix_operand !h ops.(k)
      done
  done;
  !h

let equal a b =
  let n = Array.length a.slots in
  n = Array.length b.slots
  &&
  let rec go k =
    k = n
    || (match a.slots.(k), b.slots.(k) with
        | Unused, Unused -> true
        | Active x, Active y -> Instr.equal x y
        | (Unused | Active _), _ -> false)
       && go (k + 1)
  in
  go 0

let to_string t =
  instrs t |> List.map Instr.to_string |> String.concat "\n"

let pp ppf t = Format.pp_print_string ppf (to_string t)

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

(* 64-bit FNV-1a over a canonical encoding of the slots.  The encoding is
   injective per slot up to int64 mixing, so collisions are ~2^-64 per
   pair.

   A slot's encoding is a short run of int64 words ([slot_words]): [0] for
   [Unused]; [1 + Hashtbl.hash op] then each operand's words for an
   instruction.  [hash] mixes the runs of every slot in order. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let unused_words = Bytes.make 8 '\000'

let slot_words = function
  | Unused -> unused_words
  | Active i ->
    let b = Buffer.create 64 in
    let put_int i = Buffer.add_int64_le b (Int64.of_int i) in
    put_int (1 + Hashtbl.hash i.Instr.op);
    Array.iter
      (fun (o : Operand.t) ->
        match o with
        | Operand.Gp r -> put_int (2 + Reg.gp_index r)
        | Operand.Xmm r -> put_int (32 + Reg.xmm_index r)
        | Operand.Imm v ->
          put_int 64;
          Buffer.add_int64_le b v
        | Operand.Mem m ->
          put_int 65;
          put_int
            (match m.Operand.base with
             | None -> 0
             | Some r -> 1 + Reg.gp_index r);
          (match m.Operand.index with
           | None -> put_int 0
           | Some (r, s) ->
             put_int (1 + Reg.gp_index r);
             put_int s);
          put_int m.Operand.disp)
      i.Instr.operands;
    Buffer.to_bytes b

(* The running state stays in one local so the loop allocates no boxed
   int64. *)
let hash_words words =
  let h = ref fnv_offset in
  for s = 0 to Array.length words - 1 do
    let w = words.(s) in
    for k = 0 to (Bytes.length w / 8) - 1 do
      h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le w (8 * k))) fnv_prime
    done
  done;
  !h

let hash t = hash_words (Array.map slot_words t.slots)

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

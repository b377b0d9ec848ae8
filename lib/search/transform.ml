type kind =
  | Opcode_move
  | Operand_move
  | Swap_move
  | Instruction_move

type undo =
  | Restore_slot of int * Program.slot
  | Restore_swap of int * int

let kind_to_string = function
  | Opcode_move -> "opcode"
  | Operand_move -> "operand"
  | Swap_move -> "swap"
  | Instruction_move -> "instruction"

(* The [k]-th active slot at or before [idx], counting down. *)
let rec kth_active slots idx k =
  match slots.(idx) with
  | Program.Unused -> kth_active slots (idx - 1) k
  | Program.Active i -> if k = 0 then Some (idx, i) else kth_active slots (idx - 1) (k - 1)

(* A uniformly drawn active slot, without building the list of them.
   Slots are numbered from the end: draw [k] picks the [k]-th active slot
   counting down from the last, the order the search has always used, so
   fixed-seed runs keep their random streams. *)
let random_active g (p : Program.t) =
  let slots = p.Program.slots in
  let n = Array.length slots in
  let actives = ref 0 in
  for idx = 0 to n - 1 do
    match slots.(idx) with
    | Program.Active _ -> incr actives
    | Program.Unused -> ()
  done;
  if !actives = 0 then None
  else kth_active slots (n - 1) (Rng.Dist.int g !actives)

let propose_opcode g pools (p : Program.t) =
  match random_active g p with
  | None -> None
  | Some (idx, i) ->
    let candidates = Pools.opcodes_with_shape pools (Instr.shape i) in
    (* draw among the candidates other than the current opcode *)
    let n = Array.length candidates in
    let self = ref (-1) in
    for k = 0 to n - 1 do
      if Opcode.equal candidates.(k) i.Instr.op then self := k
    done;
    let choices = if !self >= 0 then n - 1 else n in
    if choices = 0 then None
    else begin
      let k = Rng.Dist.int g choices in
      let op = candidates.(if !self >= 0 && k >= !self then k + 1 else k) in
      let i' = Instr.make_unchecked op i.Instr.operands in
      if Instr.is_well_formed i' then begin
        p.Program.slots.(idx) <- Program.Active i';
        Some (Restore_slot (idx, Program.Active i))
      end
      else None
    end

let propose_operand g pools (p : Program.t) =
  match random_active g p with
  | None -> None
  | Some (idx, i) ->
    let shape = Instr.shape i in
    if Array.length shape = 0 then None
    else begin
      let pos = Rng.Dist.int g (Array.length shape) in
      let pool = Pools.operands_of_kind pools shape.(pos) in
      if Array.length pool = 0 then None
      else begin
        let o = Rng.Dist.choose g pool in
        let operands = Array.copy i.Instr.operands in
        operands.(pos) <- o;
        let i' = Instr.make_unchecked i.Instr.op operands in
        if Instr.is_well_formed i' then begin
          p.Program.slots.(idx) <- Program.Active i';
          Some (Restore_slot (idx, Program.Active i))
        end
        else None
      end
    end

let propose_swap g (p : Program.t) =
  let n = Array.length p.Program.slots in
  if n < 2 then None
  else begin
    let a = Rng.Dist.int g n in
    let b = Rng.Dist.int g n in
    if a = b then None
    else begin
      let tmp = p.Program.slots.(a) in
      p.Program.slots.(a) <- p.Program.slots.(b);
      p.Program.slots.(b) <- tmp;
      Some (Restore_swap (a, b))
    end
  end

let propose_instruction g pools (p : Program.t) =
  let n = Array.length p.Program.slots in
  if n = 0 then None
  else begin
    let idx = Rng.Dist.int g n in
    let old = p.Program.slots.(idx) in
    let replacement =
      if Rng.Dist.bool g then Program.Unused
      else Program.Active (Pools.random_instr g pools)
    in
    p.Program.slots.(idx) <- replacement;
    Some (Restore_slot (idx, old))
  end

let propose g pools p =
  let kind =
    match Rng.Dist.int g 4 with
    | 0 -> Opcode_move
    | 1 -> Operand_move
    | 2 -> Swap_move
    | _ -> Instruction_move
  in
  let result =
    match kind with
    | Opcode_move -> propose_opcode g pools p
    | Operand_move -> propose_operand g pools p
    | Swap_move -> propose_swap g p
    | Instruction_move -> propose_instruction g pools p
  in
  match result with
  | None -> None
  | Some u -> Some (kind, u)

let undo (p : Program.t) = function
  | Restore_slot (idx, old) -> p.Program.slots.(idx) <- old
  | Restore_swap (a, b) ->
    let tmp = p.Program.slots.(a) in
    p.Program.slots.(a) <- p.Program.slots.(b);
    p.Program.slots.(b) <- tmp

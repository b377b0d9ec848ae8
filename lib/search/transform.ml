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
  | Program.Active _ -> if k = 0 then idx else kth_active slots (idx - 1) (k - 1)

(* A uniformly drawn active slot, or -1 when there is none.  Slots are
   numbered from the end: draw [k] picks the [k]-th active slot counting
   down from the last, the order the search has always used, so
   fixed-seed runs keep their random streams.  A table that describes
   the program lists its active slots in program order, so the draw is
   one read there; without one, two walks over the slots count and
   find it. *)
let random_active ?facts g (p : Program.t) =
  match facts with
  | Some m when Facts.describes m p ->
    let n = Facts.active m in
    if n = 0 then -1 else (Facts.order m).(n - 1 - Rng.Dist.int g n)
  | Some _ | None ->
    let slots = p.Program.slots in
    let n = Array.length slots in
    let actives = ref 0 in
    for idx = 0 to n - 1 do
      match slots.(idx) with
      | Program.Active _ -> incr actives
      | Program.Unused -> ()
    done;
    if !actives = 0 then -1 else kth_active slots (n - 1) (Rng.Dist.int g !actives)

(* The instruction in slot [idx], active by the draw. *)
let active_at (p : Program.t) idx =
  match p.Program.slots.(idx) with
  | Program.Active i -> i
  | Program.Unused -> assert false

(* Its shape's position among its opcode's shapes. *)
let position (i : Instr.t) =
  let k = Shape.position i.Instr.op i.Instr.operands in
  if k < 0 then invalid_arg "Transform: ill-formed instruction";
  k

(* Both moves below keep the instruction well formed with no check: see
   [Pools.opcode_move]. *)
let propose_opcode ?facts g pools (p : Program.t) =
  let idx = random_active ?facts g p in
  if idx < 0 then None
  else begin
    let old = p.Program.slots.(idx) in
    let i = active_at p idx in
    let mv = Pools.opcode_move pools i.Instr.op (position i) in
    (* draw among the candidates other than the current opcode *)
    let self = mv.Pools.self in
    let choices = Array.length mv.Pools.candidates - if self >= 0 then 1 else 0 in
    if choices = 0 then None
    else begin
      let c = Rng.Dist.int g choices in
      let op = mv.Pools.candidates.(if self >= 0 && c >= self then c + 1 else c) in
      p.Program.slots.(idx) <- Program.Active (Instr.make_unchecked op i.Instr.operands);
      Some (Restore_slot (idx, old))
    end
  end

let propose_operand ?facts g pools (p : Program.t) =
  let idx = random_active ?facts g p in
  if idx < 0 then None
  else begin
    let old = p.Program.slots.(idx) in
    let i = active_at p idx in
    let shape = (Pools.opcode_move pools i.Instr.op (position i)).Pools.shape in
    if Array.length shape = 0 then None
    else begin
      let pos = Rng.Dist.int g (Array.length shape) in
      let pool = Pools.operands_of_kind pools shape.(pos) in
      if Array.length pool = 0 then None
      else begin
        let o = Rng.Dist.choose g pool in
        let operands = Array.copy i.Instr.operands in
        operands.(pos) <- o;
        p.Program.slots.(idx) <- Program.Active (Instr.make_unchecked i.Instr.op operands);
        Some (Restore_slot (idx, old))
      end
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

let propose ?facts g pools p =
  let kind =
    match Rng.Dist.int g 4 with
    | 0 -> Opcode_move
    | 1 -> Operand_move
    | 2 -> Swap_move
    | _ -> Instruction_move
  in
  let result =
    match kind with
    | Opcode_move -> propose_opcode ?facts g pools p
    | Operand_move -> propose_operand ?facts g pools p
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

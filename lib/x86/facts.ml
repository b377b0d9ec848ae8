(* Slot [k] remembers the instruction its facts were derived from
   ([keys.(k)], compared physically; [vacant] for an [Unused] slot).
   Instructions are never mutated in place (see [Instr]), so a slot that
   still holds that very instruction keeps its facts, and a refresh after
   a move re-derives only the one or two slots the move changed. *)
type t = {
  mutable keys : Instr.t array;
  mutable lats : int array;
  mutable words : Bytes.t array;
  mutable defs : Liveness.Locset.t array;
  mutable strict_uses : Liveness.Locset.t array;
}

(* Physically distinct from every instruction of every program. *)
let vacant = Instr.make_unchecked Opcode.Movabs [||]

let create () =
  { keys = [||]; lats = [||]; words = [||]; defs = [||]; strict_uses = [||] }

let derive m k (slot : Program.slot) =
  m.words.(k) <- Program.slot_words slot;
  match slot with
  | Program.Unused ->
    m.keys.(k) <- vacant;
    m.lats.(k) <- 0;
    m.defs.(k) <- Liveness.Locset.empty;
    m.strict_uses.(k) <- Liveness.Locset.empty
  | Program.Active i ->
    m.keys.(k) <- i;
    m.lats.(k) <- Latency.of_instr i;
    m.defs.(k) <- Liveness.defs i;
    m.strict_uses.(k) <- Liveness.strict_uses i

let refresh m (p : Program.t) =
  let slots = p.Program.slots in
  let n = Array.length slots in
  if Array.length m.keys <> n then begin
    (* the facts of [n] unused slots *)
    m.keys <- Array.make n vacant;
    m.lats <- Array.make n 0;
    m.words <- Array.make n (Program.slot_words Program.Unused);
    m.defs <- Array.make n Liveness.Locset.empty;
    m.strict_uses <- Array.make n Liveness.Locset.empty
  end;
  for k = 0 to n - 1 do
    let slot = slots.(k) in
    let key =
      match slot with
      | Program.Unused -> vacant
      | Program.Active i -> i
    in
    if m.keys.(k) != key then derive m k slot
  done

let hash m = Program.hash_words m.words

let latency m =
  let lats = m.lats in
  let sum = ref 0 in
  for k = 0 to Array.length lats - 1 do
    sum := !sum + lats.(k)
  done;
  !sum

let has_undef_read m ~defined =
  Liveness.reads_undefined defined ~strict_uses:m.strict_uses ~defs:m.defs

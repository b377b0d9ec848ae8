(* Slot [k] remembers the slot value its facts were derived from
   ([keys.(k)], compared physically, so the walk reads two arrays and
   dereferences no slot).  A slot value is immutable and so is the
   instruction in it (see [Instr]); a move installs a new value and its
   undo puts the old one back, so a slot that still holds that very
   value keeps its facts, and a refresh after a move updates only the
   one or two slots the move changed.

   A changed slot finds its facts in a direct-mapped cache keyed by
   [Instr.hash] and verified with [Instr.equal], so an instruction equal
   to a recent one (an undo's restored instruction above all) is looked
   up, not derived again.  The per-slot sets are also kept in plain
   arrays: the undef-read and liveness walks run over them inside
   [Liveness], a few word ops per slot. *)

type derived = {
  instr : Instr.t;  (** the instruction these facts describe *)
  hash : int;  (** [Instr.hash instr]; [unused_hash] for an [Unused] slot *)
  lat : int;
  defs : Liveness.Locset.t;
  strict_uses : Liveness.Locset.t;
  uses : Liveness.Locset.t;
  kills : Liveness.Locset.t;
  quiet : bool;  (** [Liveness.cannot_fault], or an [Unused] slot *)
}

(* Physically distinct from every instruction of every program. *)
let vacant = Instr.make_unchecked Opcode.Movabs [||]
let unused_hash = 0x2f1a_9b3c_5d7e_4861

let unused =
  let e = Liveness.Locset.empty in
  { instr = vacant; hash = unused_hash; lat = 0; defs = e; strict_uses = e;
    uses = e; kills = e; quiet = true }

(* A slot's term of the key: its instruction's hash mixed with the slot
   index, so the same instruction in two slots adds two unrelated terms
   and a swap changes the key. *)
let term k h =
  let x = (h + ((k + 1) * 0x1e3779b97f4a7c15)) * 0x2545f4914f6cdd1d in
  x lxor (x lsr 31)

let cache_size = 1024

type t = {
  mutable keys : Program.slot array;
  mutable facts : derived array;
  mutable terms : int array;
  mutable defs : Liveness.Locset.t array;
  mutable strict_uses : Liveness.Locset.t array;
  mutable uses : Liveness.Locset.t array;
  mutable kills : Liveness.Locset.t array;
  mutable key : int;  (** the sum of [terms] *)
  mutable latency : int;  (** the sum of the slots' [lat] *)
  mutable cache : derived array;
      (** [unused] marks an empty entry; made by the first refresh, so a
          context that never evaluates allocates none *)
}

let create () =
  { keys = [||]; facts = [||]; terms = [||]; defs = [||]; strict_uses = [||];
    uses = [||]; kills = [||]; key = 0; latency = 0; cache = [||] }

let derive i h =
  { instr = i; hash = h; lat = Latency.of_instr i; defs = Liveness.defs i;
    strict_uses = Liveness.strict_uses i; uses = Liveness.uses i;
    kills = Liveness.kills i; quiet = Liveness.cannot_fault i }

let lookup m i =
  let h = Instr.hash i in
  let e = h land (cache_size - 1) in
  let c = m.cache.(e) in
  if c != unused && (c.instr == i || Instr.equal c.instr i) then c
  else begin
    let d = derive i h in
    m.cache.(e) <- d;
    d
  end

let of_slot m = function
  | Program.Unused -> unused
  | Program.Active i -> lookup m i

let set m k slot =
  let d = of_slot m slot in
  let t = term k d.hash in
  m.keys.(k) <- slot;
  m.key <- m.key - m.terms.(k) + t;
  m.terms.(k) <- t;
  m.latency <- m.latency - m.facts.(k).lat + d.lat;
  m.facts.(k) <- d;
  m.defs.(k) <- d.defs;
  m.strict_uses.(k) <- d.strict_uses;
  m.uses.(k) <- d.uses;
  m.kills.(k) <- d.kills

let refresh m (p : Program.t) =
  let slots = p.Program.slots in
  let n = Array.length slots in
  if Array.length m.keys <> n then begin
    (* the facts of [n] unused slots *)
    let e = Liveness.Locset.empty in
    m.keys <- Array.make n Program.Unused;
    m.facts <- Array.make n unused;
    m.terms <- Array.init n (fun k -> term k unused_hash);
    m.defs <- Array.make n e;
    m.strict_uses <- Array.make n e;
    m.uses <- Array.make n e;
    m.kills <- Array.make n e;
    m.key <- Array.fold_left ( + ) 0 m.terms;
    m.latency <- 0;
    if Array.length m.cache = 0 then m.cache <- Array.make cache_size unused
  end;
  for k = 0 to n - 1 do
    let slot = slots.(k) in
    if m.keys.(k) != slot then set m k slot
  done

let key m = m.key

let latency m = m.latency

let has_undef_read m ~defined =
  Liveness.reads_undefined defined ~strict_uses:m.strict_uses ~defs:m.defs

let dead_write m ~slot ~old ~live_out =
  let now = m.facts.(slot) in
  now.quiet
  &&
  let before = of_slot m old in
  before.quiet
  &&
  let written = Liveness.Locset.union now.defs before.defs in
  Liveness.Locset.is_empty written
  || Liveness.Locset.disjoint written
       (Liveness.live_after ~uses:m.uses ~kills:m.kills ~live_out slot)

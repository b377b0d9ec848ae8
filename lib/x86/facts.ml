(* The per-slot table.  Slot [k] remembers the slot value its entry was
   made for ([keys.(k)], compared physically, so a walk reads two arrays
   and dereferences no slot).  A slot value is immutable and so is the
   instruction in it (see [Instr]); a move installs a new value and its
   undo puts the old one back, so a slot that still holds that very
   value keeps its entry.

   The search does not walk at all: it names the slots a move changed
   ([move], [swap]), the table journals their entries first, and [revert]
   puts the journaled entries back without a lookup.  Every other caller
   walks ([refresh]).

   Alongside the per-slot entries the table keeps its active slots
   densely, in program order: their entries, translated steps and
   latencies.  [pos.(k)] is the dense index slot [k] has (or would have,
   were it active); changing an active slot replaces its dense entry in
   place, and only an [Unused] <-> active toggle shifts the dense tail.

   A changed slot finds its entry in a direct-mapped cache keyed by
   [Instr.hash] and verified with [Instr.equal], so an instruction equal
   to a recent one is looked up, not derived (and translated) again.
   An entry is translated when it is derived, by the translator the
   table was created with. *)

type derived = {
  instr : Instr.t;  (** the instruction these facts describe *)
  hash : int;  (** [Instr.hash instr]; [unused_hash] for an [Unused] slot *)
  lat : int;
  defs : Liveness.Locset.t;
  strict_uses : Liveness.Locset.t;
  uses : Liveness.Locset.t;
  kills : Liveness.Locset.t;
  quiet : bool;  (** [Liveness.cannot_fault], or an [Unused] slot *)
  step : unit -> unit;  (** the table's translation of [instr] *)
}

let no_step () = ()

(* Physically distinct from every instruction of every program. *)
let vacant = Instr.make_unchecked Opcode.Movabs [||]
let unused_hash = 0x2f1a_9b3c_5d7e_4861

(* The entry of every [Unused] slot, and of an empty cache line. *)
let unused =
  let e = Liveness.Locset.empty in
  { instr = vacant; hash = unused_hash; lat = 0; defs = e; strict_uses = e;
    uses = e; kills = e; quiet = true; step = no_step }

(* A slot's term of the key: its instruction's hash mixed with the slot
   index, so the same instruction in two slots adds two unrelated terms
   and a swap changes the key. *)
let term k h =
  let x = (h + ((k + 1) * 0x1e3779b97f4a7c15)) * 0x2545f4914f6cdd1d in
  x lxor (x lsr 31)

let cache_size = 1024

(* Described by no table: the program of a table never refreshed. *)
let nothing = { Program.slots = [||] }

type t = {
  mutable prog : Program.t;  (** the program described, physically *)
  mutable keys : Program.slot array;
  mutable facts : derived array;
  mutable terms : int array;
  mutable pos : int array;  (** [n + 1] entries; [pos.(n) = active] *)
  mutable dense : derived array;
  mutable steps : (unit -> unit) array;
  mutable lats : int array;
  mutable active : int;
  mutable key : int;  (** the sum of [terms] *)
  mutable latency : int;  (** the sum of the slots' [lat] *)
  mutable cache : derived array;
      (** [unused] marks an empty line; made by the first refresh, so a
          context that never evaluates allocates none *)
  translate : Instr.t -> unit -> unit;
  jslot : int array;  (** the journal: the slots the last move changed *)
  jfact : derived array;  (** and their entries before it *)
  mutable jlen : int;  (** entries journaled; -1 when a walk voided them *)
}

let create ?(translate = fun _ -> no_step) () =
  { prog = nothing; keys = [||]; facts = [||]; terms = [||]; pos = [| 0 |];
    dense = [||]; steps = [||]; lats = [||]; active = 0; key = 0; latency = 0;
    cache = [||]; translate; jslot = Array.make 2 0;
    jfact = Array.make 2 unused; jlen = -1 }

let derive m i h =
  { instr = i; hash = h; lat = Latency.of_instr i; defs = Liveness.defs i;
    strict_uses = Liveness.strict_uses i; uses = Liveness.uses i;
    kills = Liveness.kills i; quiet = Liveness.cannot_fault i;
    step = m.translate i }

let lookup m i =
  let h = Instr.hash i in
  let e = h land (cache_size - 1) in
  let c = m.cache.(e) in
  if c != unused && (c.instr == i || Instr.equal c.instr i) then c
  else begin
    let d = derive m i h in
    m.cache.(e) <- d;
    d
  end

let of_slot m = function
  | Program.Unused -> unused
  | Program.Active i -> lookup m i

let place m p d =
  m.dense.(p) <- d;
  m.steps.(p) <- d.step;
  m.lats.(p) <- d.lat

(* Open ([by = 1]) or close ([by = -1]) the dense index of slot [k]. *)
let shift m k ~by =
  let p = m.pos.(k) in
  let from, into = if by > 0 then (p, p + 1) else (p + 1, p) in
  let len = m.active - from in
  Array.blit m.dense from m.dense into len;
  Array.blit m.steps from m.steps into len;
  Array.blit m.lats from m.lats into len;
  let pos = m.pos in
  for j = k + 1 to Array.length pos - 1 do
    pos.(j) <- pos.(j) + by
  done;
  m.active <- m.active + by

(* Install entry [d] for [slot] at [k]. *)
let set m k slot d =
  let old = m.facts.(k) in
  let t = term k d.hash in
  m.keys.(k) <- slot;
  m.key <- m.key - m.terms.(k) + t;
  m.terms.(k) <- t;
  m.latency <- m.latency - old.lat + d.lat;
  m.facts.(k) <- d;
  if old != unused then begin
    if d != unused then place m m.pos.(k) d else shift m k ~by:(-1)
  end
  else if d != unused then begin
    shift m k ~by:1;
    place m m.pos.(k) d
  end

let resize m n =
  m.keys <- Array.make n Program.Unused;
  m.facts <- Array.make n unused;
  m.terms <- Array.init n (fun k -> term k unused_hash);
  m.pos <- Array.make (n + 1) 0;
  m.dense <- Array.make n unused;
  m.steps <- Array.make n no_step;
  m.lats <- Array.make n 0;
  m.active <- 0;
  m.key <- Array.fold_left ( + ) 0 m.terms;
  m.latency <- 0;
  if Array.length m.cache = 0 then m.cache <- Array.make cache_size unused

let refresh m (p : Program.t) =
  let slots = p.Program.slots in
  let n = Array.length slots in
  let changed = ref (p != m.prog) in
  if Array.length m.keys <> n || Array.length m.cache = 0 then begin
    resize m n;
    changed := true
  end;
  for k = 0 to n - 1 do
    let slot = slots.(k) in
    if m.keys.(k) != slot then begin
      set m k slot (of_slot m slot);
      changed := true
    end
  done;
  m.prog <- p;
  if !changed then m.jlen <- -1

let journal m j k =
  m.jslot.(j) <- k;
  m.jfact.(j) <- m.facts.(k)

let update m (p : Program.t) k =
  let slot = p.Program.slots.(k) in
  set m k slot (of_slot m slot)

(* Whether the table describes [p] but for the slots a move just
   changed. *)
let follows m (p : Program.t) =
  p == m.prog && Array.length m.keys = Array.length p.Program.slots

let move m p k =
  if follows m p then begin
    journal m 0 k;
    m.jlen <- 1;
    update m p k
  end
  else refresh m p

let swap m p a b =
  if follows m p then begin
    journal m 0 a;
    journal m 1 b;
    m.jlen <- 2;
    update m p a;
    update m p b
  end
  else refresh m p

let revert m p =
  if m.jlen >= 0 && follows m p then begin
    (* [p]'s slot, which the undo may have rebuilt around the same
       instruction, keys the journaled entry *)
    for j = m.jlen - 1 downto 0 do
      let k = m.jslot.(j) in
      set m k p.Program.slots.(k) m.jfact.(j)
    done;
    m.jlen <- 0
  end
  else refresh m p

let key m = m.key
let latency m = m.latency
let active m = m.active
let steps m = m.steps
let step_latencies m = m.lats

(* The walks read the sets as the ints they are (see [Liveness.Locset]),
   over the dense entries: an [Unused] slot neither reads nor writes. *)
let rec reads_undefined dense n p defined =
  p < n
  &&
  let d = dense.(p) in
  (d.strict_uses :> int) land lnot defined <> 0
  || reads_undefined dense n (p + 1) (defined lor (d.defs :> int))

let has_undef_read m ~defined =
  reads_undefined m.dense m.active 0 (defined : Liveness.Locset.t :> int)

(* The locations live just after slot [k], backward from [live_out]
   over the dense entries of the slots after it. *)
let live_after m ~live_out k =
  let dense = m.dense in
  let live = ref (live_out : Liveness.Locset.t :> int) in
  for p = m.active - 1 downto m.pos.(k + 1) do
    let d = dense.(p) in
    live := (!live land lnot (d.kills :> int)) lor (d.uses :> int)
  done;
  !live

let dead_write m ~slot ~old ~live_out =
  let now = m.facts.(slot) in
  now.quiet
  &&
  let before =
    match old with
    | Program.Unused -> unused
    | Program.Active i ->
      (* the move's journaled entry, when it describes [old] *)
      let j = m.jfact.(0) in
      if m.jlen >= 1 && m.jslot.(0) = slot && j.instr == i then j
      else lookup m i
  in
  before.quiet
  &&
  let written = (now.defs :> int) lor (before.defs :> int) in
  written = 0 || written land live_after m ~live_out slot = 0

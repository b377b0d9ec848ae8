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
   densely, in program order: their slot indices ([order]), translated
   steps and latencies.  [pos.(k)] is the dense index slot [k] has (or
   would have, were it active); changing an active slot replaces its
   dense step and latency in place, and only an [Unused] <-> active
   toggle shifts the dense tail.  [order], [lats] and [pos] are int
   arrays shifted by plain loops: [Array.blit] would run the write
   barrier on every element, even of an int array; [steps] is the one
   pointer array a toggle shifts.

   A changed slot finds its entry in a direct-mapped cache keyed by
   [Instr.hash] and verified with [Instr.equal], so an instruction equal
   to a recent one is looked up, not derived (and translated) again.
   An entry is translated when it is derived, by the translator the
   table was created with. *)

type derived = {
  instr : Instr.t;  (** the instruction these facts describe *)
  hash : int;  (** [Instr.hash instr]; [unused_hash] for an [Unused] slot *)
  lat : int;
  live : Liveness.summary;
      (** its sets, and [cannot_fault] (true for an [Unused] slot) *)
  step : unit -> unit;  (** the table's translation of [instr] *)
}

let no_step () = ()

(* Physically distinct from every instruction of every program. *)
let vacant = Instr.make_unchecked Opcode.Movabs [||]
let unused_hash = 0x2f1a_9b3c_5d7e_4861

(* The entry of every [Unused] slot, and of an empty cache line. *)
let unused =
  let e = Liveness.Locset.empty in
  { instr = vacant; hash = unused_hash; lat = 0;
    live =
      { Liveness.defs = e; strict_uses = e; uses = e; kills = e; cannot_fault = true };
    step = no_step }

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
  mutable order : int array;  (** the active slots, in program order *)
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
    order = [||]; steps = [||]; lats = [||]; active = 0; key = 0; latency = 0;
    cache = [||]; translate; jslot = Array.make 2 0;
    jfact = Array.make 2 unused; jlen = -1 }

let derive m i h =
  { instr = i; hash = h; lat = Latency.of_instr i; live = Liveness.summary i;
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

let place m k d =
  let p = m.pos.(k) in
  m.order.(p) <- k;
  m.steps.(p) <- d.step;
  m.lats.(p) <- d.lat

(* Open the dense index of slot [k]: the tail from its position moves up
   one. *)
let open_at m k =
  let p = m.pos.(k) and order = m.order and lats = m.lats in
  for j = m.active downto p + 1 do
    order.(j) <- order.(j - 1);
    lats.(j) <- lats.(j - 1)
  done;
  Array.blit m.steps p m.steps (p + 1) (m.active - p);
  let pos = m.pos in
  for j = k + 1 to Array.length pos - 1 do
    pos.(j) <- pos.(j) + 1
  done;
  m.active <- m.active + 1

(* Close it: the tail after it moves down one. *)
let close_at m k =
  let p = m.pos.(k) and order = m.order and lats = m.lats in
  let last = m.active - 1 in
  for j = p to last - 1 do
    order.(j) <- order.(j + 1);
    lats.(j) <- lats.(j + 1)
  done;
  Array.blit m.steps (p + 1) m.steps p (last - p);
  let pos = m.pos in
  for j = k + 1 to Array.length pos - 1 do
    pos.(j) <- pos.(j) - 1
  done;
  m.active <- last

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
    if d != unused then place m k d else close_at m k
  end
  else if d != unused then begin
    open_at m k;
    place m k d
  end

let resize m n =
  m.keys <- Array.make n Program.Unused;
  m.facts <- Array.make n unused;
  m.terms <- Array.init n (fun k -> term k unused_hash);
  m.pos <- Array.make (n + 1) 0;
  m.order <- Array.make n 0;
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
let order m = m.order
let steps m = m.steps
let step_latencies m = m.lats

let describes m (p : Program.t) = follows m p

(* The walks read the sets as the ints they are (see [Liveness.Locset]),
   over the active slots: an [Unused] slot neither reads nor writes. *)
let rec reads_undefined facts order n p defined =
  p < n
  &&
  let l = facts.(order.(p)).live in
  (l.Liveness.strict_uses :> int) land lnot defined <> 0
  || reads_undefined facts order n (p + 1) (defined lor (l.Liveness.defs :> int))

let has_undef_read m ~defined =
  reads_undefined m.facts m.order m.active 0 (defined : Liveness.Locset.t :> int)

(* The locations live just after slot [k], backward from [live_out]
   over the active slots after it. *)
let live_after m ~live_out k =
  let facts = m.facts and order = m.order in
  let live = ref (live_out : Liveness.Locset.t :> int) in
  for p = m.active - 1 downto m.pos.(k + 1) do
    let l = facts.(order.(p)).live in
    live := (!live land lnot (l.Liveness.kills :> int)) lor (l.Liveness.uses :> int)
  done;
  !live

let dead_write m ~slot ~old ~live_out =
  let now = m.facts.(slot).live in
  now.Liveness.cannot_fault
  &&
  let before =
    match old with
    | Program.Unused -> unused.live
    | Program.Active i ->
      (* the move's journaled entry, when it describes [old] *)
      let j = m.jfact.(0) in
      if m.jlen >= 1 && m.jslot.(0) = slot && j.instr == i then j.live
      else (lookup m i).live
  in
  before.Liveness.cannot_fault
  &&
  let written = (now.Liveness.defs :> int) lor (before.Liveness.defs :> int) in
  written = 0 || written land live_after m ~live_out slot = 0

type counters = {
  prepares : int;
  runs : int;
  fallbacks : int;
  respawns : int;
}

let zero = { prepares = 0; runs = 0; fallbacks = 0; respawns = 0 }

let map2 f a b =
  {
    prepares = f a.prepares b.prepares;
    runs = f a.runs b.runs;
    fallbacks = f a.fallbacks b.fallbacks;
    respawns = f a.respawns b.respawns;
  }

let add = map2 ( + )
let sub = map2 ( - )

type stop =
  | Completed
  | Stopped of int
  | Aborted

type outcome = {
  stop : stop;
  runs : int;
}

type score = int -> bool -> Bytes.t -> bool

module type S = sig
  val engine : Exec.engine
  val available : unit -> bool
  val translates : bool

  type lanes

  val lanes : Spec.t -> Testcase.t array -> lanes
  val table : lanes -> Facts.t
  val prepare : lanes -> Program.t -> bool

  val run :
    lanes -> order:int array -> diverges:(int -> bool) -> score -> outcome option

  val respawns : lanes -> int

  type caller

  val caller : Machine.t -> caller

  type call

  val prepare_call : caller -> Machine.t -> Program.t -> call option
  val call : call -> Exec.result option
  val finished : call -> bool option
end

(* Programs no caller holds: what a lane set runs before its first
   prepare. *)
let nothing = { Program.slots = [||] }

let ran_to_end (r : Exec.result) =
  match r.Exec.outcome with
  | Exec.Finished -> true
  | Exec.Faulted _ -> false

(* [S.finished] of a result.  [Some true] and [Some false] are
   constants, so an engine answering with them allocates nothing. *)
let finished_of r = if ran_to_end r then Some true else Some false

(* ----- the two lane loops ----- *)

(* Scalar engines: one machine, restored and loaded per test, so scoring
   interleaves with execution and stopping early skips the rest.  The
   callback reads the machine's own register file.  A run's outcome
   depends only on the test count and where it stopped, so the [n + 1]
   outcomes of each test count are made once and shared, read-only, by
   every lane set on every domain: a run allocates none, and a lane set
   carries none of its own. *)
type scalar = {
  tests : Testcase.t array;
  machine : Machine.t;
  pristine : Machine.t;
  outcomes : outcome option array;
      (** stopped at position [pos < n], or completed at [n] *)
}

(* The test counts met so far; two domains that miss one at once both
   build it, alike. *)
let built : (int * outcome option array) list Atomic.t = Atomic.make []

let outcomes n =
  match List.assoc_opt n (Atomic.get built) with
  | Some a -> a
  | None ->
    let a =
      Array.init (n + 1) (fun pos ->
          if pos = n then Some { stop = Completed; runs = n }
          else Some { stop = Stopped pos; runs = pos + 1 })
    in
    let rec publish () =
      let seen = Atomic.get built in
      if not (Atomic.compare_and_set built seen ((n, a) :: seen)) then publish ()
    in
    publish ();
    a

let scalar_lanes (spec : Spec.t) tests =
  let machine = Machine.create ~mem_size:spec.Spec.mem_size () in
  { tests; machine; pristine = Machine.copy machine;
    outcomes = outcomes (Array.length tests) }

let rec scalar_run s exec order (f : score) pos =
  if pos = Array.length s.tests then s.outcomes.(pos)
  else begin
    let lane = order.(pos) in
    Machine.restore_from ~src:s.pristine ~dst:s.machine;
    Testcase.apply s.tests.(lane) s.machine;
    if f lane (exec ()) s.machine.Machine.regs then s.outcomes.(pos)
    else scalar_run s exec order f (pos + 1)
  end

(* Whole-batch engines: every lane has already run; score the latched
   results in the caller's order. *)
let score_lanes ~n ~order ~finished ~regs (f : score) =
  let rec go pos =
    if pos = n then { stop = Completed; runs = n }
    else begin
      let lane = order.(pos) in
      if f lane (finished lane) (regs lane) then { stop = Stopped pos; runs = n }
      else go (pos + 1)
    end
  in
  go 0

(* ----- the four instances ----- *)

module Interp_engine = struct
  let engine = Exec.Interp
  let available () = true
  let translates = false

  type lanes = {
    scalar : scalar;
    table : Facts.t;
    prog : Program.t ref;
    exec : unit -> bool;
  }

  let lanes spec tests =
    let scalar = scalar_lanes spec tests in
    let prog = ref nothing in
    let exec () =
      match (Exec.run scalar.machine !prog).Exec.outcome with
      | Exec.Finished -> true
      | Exec.Faulted _ -> false
    in
    { scalar; table = Facts.create (); prog; exec }

  let table l = l.table

  let prepare l p =
    l.prog := p;
    true

  let run l ~order ~diverges:_ f = scalar_run l.scalar l.exec order f 0
  let respawns _ = 0

  type caller = unit

  let caller _ = ()

  type call = Machine.t * Program.t

  let prepare_call () m p = Some (m, p)
  let call (m, p) = Some (Exec.run m p)
  let finished (m, p) = finished_of (Exec.run m p)
end

module Compiled_engine = struct
  let engine = Exec.Compiled
  let available () = true
  let translates = true

  (* One translator per test set, bound to its machine: its table holds
     the translated slots, and a prepare reads its dense steps. *)
  type lanes = {
    scalar : scalar;
    memo : Compiled.memo;
    cur : Compiled.t ref;
    exec : unit -> bool;
  }

  let lanes spec tests =
    let scalar = scalar_lanes spec tests in
    let memo = Compiled.memo scalar.machine in
    let cur = ref (Compiled.compile scalar.machine nothing) in
    { scalar; memo; cur; exec = (fun () -> Compiled.run !cur) }

  let table l = Compiled.table l.memo

  let prepare l _ =
    l.cur := Compiled.prepare l.memo;
    true

  let run l ~order ~diverges:_ f = scalar_run l.scalar l.exec order f 0
  let respawns _ = 0

  type caller = unit

  let caller _ = ()

  type call = Compiled.t

  let prepare_call () m p = Some (Compiled.compile m p)
  let call cp = Some (Compiled.exec cp)
  let finished cp = if Compiled.run cp then Some true else Some false
end

module Batched_engine = struct
  let engine = Exec.Batched
  let available () = true
  let translates = true

  type lanes = {
    spec : Spec.t;
    table : Facts.t;
    batch : Batched.batch option;  (** [None] for an empty test set *)
    outputs : Bytes.t;  (** the lane being scored's output quads *)
    mutable cur : Batched.t option;
  }

  let lanes spec tests =
    {
      spec;
      table = Facts.create ();
      batch =
        (if Array.length tests = 0 then None
         else
           Some
             (Batched.create_batch
                (Machine.create ~mem_size:spec.Spec.mem_size ())
                tests));
      outputs = Bytes.make Machine.regs_size '\000';
      cur = None;
    }

  let table l = l.table

  let prepare l p =
    l.cur <- Option.map (fun b -> Batched.compile b p) l.batch;
    true

  (* The batch-abort rule: a lane parking on a fault that [diverges]
     stops the whole batch mid-run. *)
  let exec l ~order ~diverges f =
    match l.batch, l.cur with
    | Some b, Some bp ->
      let n = Batched.lane_count b in
      Batched.reset b;
      if Batched.exec bp ~on_fault:(fun ~lane _ -> diverges lane) then
        { stop = Aborted; runs = n }
      else
        score_lanes ~n ~order
          ~finished:(fun lane -> Option.is_none (Batched.fault b ~lane))
          ~regs:(fun lane ->
            Batched.blit_outputs b ~lane l.spec l.outputs;
            l.outputs)
          f
    | _ -> { stop = Completed; runs = 0 }

  let run l ~order ~diverges f = Some (exec l ~order ~diverges f)
  let respawns _ = 0

  type caller = Batched.batch

  let caller m = Batched.create_batch m [| Testcase.empty |]

  type call = Batched.t * Machine.t

  let compile_call b m p = (Batched.compile b p, m)
  let prepare_call b m p = Some (compile_call b m p)
  let exec_call (bp, m) = Batched.run_one bp m
  let call c = Some (exec_call c)
  let finished c = finished_of (exec_call c)
end

module Native_engine = struct
  let engine = Exec.Native
  let available = Native.available
  let translates = true

  type lanes = {
    table : Facts.t;
    nb : Native.batch option;
        (** [None] when native execution is unavailable or there are no
            tests *)
    mutable cur : Native.t option;
  }

  let lanes (spec : Spec.t) tests =
    {
      table = Facts.create ();
      nb =
        (if Array.length tests = 0 then None
         else
           Native.create_batch
             (Machine.create ~mem_size:spec.Spec.mem_size ())
             tests);
      cur = None;
    }

  let table l = l.table

  let prepare l p =
    l.cur <- Option.bind l.nb (fun nb -> Native.compile nb p);
    Option.is_some l.cur

  (* The worker runs every lane, so the batch-abort rule is applied
     after the run. *)
  let run l ~order ~diverges f =
    match l.nb, l.cur with
    | Some nb, Some np ->
      Native.reset nb;
      if Native.exec np then None
      else begin
        let n = Native.lane_count nb in
        let faulted lane = Option.is_some (Native.fault nb ~lane) in
        let rec diverging lane =
          lane < n && ((faulted lane && diverges lane) || diverging (lane + 1))
        in
        if diverging 0 then Some { stop = Aborted; runs = n }
        else
          Some
            (score_lanes ~n ~order
               ~finished:(fun lane -> not (faulted lane))
               ~regs:(fun lane -> Native.lane_regs nb ~lane)
               f)
      end
    | _ -> None

  let respawns l = Option.fold ~none:0 ~some:Native.respawns l.nb

  (* forked on first use *)
  type caller = Native.batch option Lazy.t

  let caller m =
    lazy (Native.create_batch ~want_mem:true m [| Testcase.empty |])

  type call = Native.batch * Native.t * Machine.t

  let prepare_call c m p =
    Option.bind (Lazy.force c) (fun nb ->
        Option.map (fun np -> (nb, np, m)) (Native.compile nb p))

  let call (nb, np, m) = Native.run_one nb np m
  let finished c = Option.bind (call c) finished_of
end

type t = (module S)

let all = [ Exec.Interp; Exec.Compiled; Exec.Batched; Exec.Native ]

let of_engine : Exec.engine -> t = function
  | Exec.Interp -> (module Interp_engine)
  | Exec.Compiled -> (module Compiled_engine)
  | Exec.Batched -> (module Batched_engine)
  | Exec.Native -> (module Native_engine)

let available e =
  let module E = (val of_engine e) in
  E.available ()

let engine (module E : S) = E.engine

(* ----- the fallback rule ----- *)

(* Whatever an instance declines or crashes on runs on [Batched], which
   never declines; the fallback's lanes are made the first time one is
   needed, and only Native ever needs one.  Preparing and running
   allocate nothing of their own: the closures below are made once per
   lane set. *)

type lanes = {
  table : Facts.t;
  prepare_lanes : Program.t -> unit;
  run_lanes : order:int array -> diverges:(int -> bool) -> score -> outcome;
  counters_now : unit -> counters;
}

type prepared = lanes

let lanes (module E : S) spec tests =
  let l = E.lanes spec tests in
  let prepares = ref 0 and runs = ref 0 and fallbacks = ref 0 in
  let program = ref nothing and declined = ref false in
  let fallback = ref None in
  let on_fallback ~order ~diverges f =
    let fb =
      match !fallback with
      | Some fb -> fb
      | None ->
        let fb = Batched_engine.lanes spec tests in
        fallback := Some fb;
        fb
    in
    ignore (Batched_engine.prepare fb !program : bool);
    let o = Batched_engine.exec fb ~order ~diverges f in
    fallbacks := !fallbacks + o.runs;
    o
  in
  let prepare_lanes p =
    if E.translates then incr prepares;
    program := p;
    declined := not (E.prepare l p)
  in
  let run_lanes ~order ~diverges f =
    if !declined then on_fallback ~order ~diverges f
    else
      match E.run l ~order ~diverges f with
      | Some o ->
        runs := !runs + o.runs;
        o
      | None -> on_fallback ~order ~diverges f
  in
  let counters_now () =
    {
      prepares = !prepares;
      runs = !runs;
      fallbacks = !fallbacks;
      respawns = E.respawns l;
    }
  in
  { table = E.table l; prepare_lanes; run_lanes; counters_now }

let table l = l.table

let prepare l program =
  l.prepare_lanes program;
  l

let run (p : prepared) ~order ~diverges f = p.run_lanes ~order ~diverges f
let counters l = l.counters_now ()

(* A bound call's two views, made once per prepare, so a run allocates
   nothing of its own. *)
type call = {
  result : unit -> Exec.result;
  finished : unit -> bool;
}

type caller = Machine.t -> Program.t -> call

let caller (module E : S) template : caller =
  let c = E.caller template in
  let fallback = lazy (Batched_engine.caller template) in
  fun m program ->
    let fb =
      lazy (Batched_engine.compile_call (Lazy.force fallback) m program)
    in
    let on_fallback () = Batched_engine.exec_call (Lazy.force fb) in
    let finish_fallback () = ran_to_end (on_fallback ()) in
    match E.prepare_call c m program with
    | None -> { result = on_fallback; finished = finish_fallback }
    | Some k ->
      {
        result =
          (fun () ->
            match E.call k with
            | Some r -> r
            | None -> on_fallback ());
        finished =
          (fun () ->
            match E.finished k with
            | Some ok -> ok
            | None -> finish_fallback ());
      }

let prepare_call (c : caller) m program = c m program
let call (k : call) = k.result ()
let finished (k : call) = k.finished ()

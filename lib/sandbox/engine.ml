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

module type S = sig
  val engine : Exec.engine
  val available : unit -> bool
  val translates : bool

  type lanes

  val lanes : Spec.t -> Testcase.t array -> lanes

  type prog

  val prepare : lanes -> Program.t -> prog option

  val run :
    prog ->
    order:int array ->
    diverges:(int -> bool) ->
    (int -> Spec.value array option -> bool) ->
    outcome option

  val respawns : lanes -> int

  type caller

  val caller : Machine.t -> caller

  type call

  val prepare_call : caller -> Machine.t -> Program.t -> call option
  val call : call -> Exec.result option
end

(* ----- the two lane loops ----- *)

(* Scalar engines: one machine, restored and loaded per test, so scoring
   interleaves with execution and stopping early skips the rest. *)
type scalar = {
  spec : Spec.t;
  tests : Testcase.t array;
  machine : Machine.t;
  pristine : Machine.t;
}

let scalar_lanes spec tests =
  let machine = Machine.create ~mem_size:spec.Spec.mem_size () in
  { spec; tests; machine; pristine = Machine.copy machine }

let scalar_run s exec ~order f =
  let n = Array.length s.tests in
  let rec go pos =
    if pos = n then { stop = Completed; runs = n }
    else begin
      let lane = order.(pos) in
      Machine.restore_from ~src:s.pristine ~dst:s.machine;
      Testcase.apply s.tests.(lane) s.machine;
      let outputs =
        match (exec ()).Exec.outcome with
        | Exec.Finished -> Some (Spec.read_outputs s.spec s.machine)
        | Exec.Faulted _ -> None
      in
      if f lane outputs then { stop = Stopped pos; runs = pos + 1 }
      else go (pos + 1)
    end
  in
  go 0

(* Whole-batch engines: every lane has already run; score the latched
   results in the caller's order. *)
let score_lanes ~n ~order ~fault ~read f =
  let rec go pos =
    if pos = n then { stop = Completed; runs = n }
    else begin
      let lane = order.(pos) in
      let outputs =
        match fault lane with
        | Some _ -> None
        | None -> Some (read lane)
      in
      if f lane outputs then { stop = Stopped pos; runs = n } else go (pos + 1)
    end
  in
  go 0

(* ----- the four instances ----- *)

module Interp_engine = struct
  let engine = Exec.Interp
  let available () = true
  let translates = false

  type lanes = scalar

  let lanes = scalar_lanes

  type prog = scalar * Program.t

  let prepare l p = Some (l, p)

  let run (l, p) ~order ~diverges:_ f =
    Some (scalar_run l (fun () -> Exec.run l.machine p) ~order f)

  let respawns _ = 0

  type caller = unit

  let caller _ = ()

  type call = Machine.t * Program.t

  let prepare_call () m p = Some (m, p)
  let call (m, p) = Some (Exec.run m p)
end

module Compiled_engine = struct
  let engine = Exec.Compiled
  let available () = true
  let translates = true

  (* One translation memo per test set, bound to its machine and made on
     the first prepare: a proposal re-translates only the slots it
     changed. *)
  type lanes = {
    scalar : scalar;
    memo : Compiled.memo Lazy.t;
  }

  let lanes spec tests =
    let scalar = scalar_lanes spec tests in
    { scalar; memo = lazy (Compiled.memo scalar.machine) }

  type prog = scalar * Compiled.t

  let prepare l p = Some (l.scalar, Compiled.prepare (Lazy.force l.memo) p)

  let run (l, cp) ~order ~diverges:_ f =
    Some (scalar_run l (fun () -> Compiled.exec cp) ~order f)

  let respawns _ = 0

  type caller = unit

  let caller _ = ()

  type call = Compiled.t

  let prepare_call () m p = Some (Compiled.compile m p)
  let call cp = Some (Compiled.exec cp)
end

module Batched_engine = struct
  let engine = Exec.Batched
  let available () = true
  let translates = true

  type lanes = {
    spec : Spec.t;
    batch : Batched.batch option;  (** [None] for an empty test set *)
  }

  let lanes spec tests =
    {
      spec;
      batch =
        (if Array.length tests = 0 then None
         else
           Some
             (Batched.create_batch
                (Machine.create ~mem_size:spec.Spec.mem_size ())
                tests));
    }

  type prog = lanes * Batched.t option

  let compile l p = (l, Option.map (fun b -> Batched.compile b p) l.batch)
  let prepare l p = Some (compile l p)

  (* The batch-abort rule: a lane parking on a fault that [diverges]
     stops the whole batch mid-run. *)
  let exec (l, bp) ~order ~diverges f =
    match l.batch, bp with
    | Some b, Some bp ->
      let n = Batched.lane_count b in
      Batched.reset b;
      if Batched.exec bp ~on_fault:(fun ~lane _ -> diverges lane) then
        { stop = Aborted; runs = n }
      else
        score_lanes ~n ~order
          ~fault:(fun lane -> Batched.fault b ~lane)
          ~read:(fun lane -> Batched.read_outputs b ~lane l.spec)
          f
    | _ -> { stop = Completed; runs = 0 }

  let run p ~order ~diverges f = Some (exec p ~order ~diverges f)
  let respawns _ = 0

  type caller = Batched.batch

  let caller m = Batched.create_batch m [| Testcase.empty |]

  type call = Batched.t * Machine.t

  let compile_call b m p = (Batched.compile b p, m)
  let prepare_call b m p = Some (compile_call b m p)
  let exec_call (bp, m) = Batched.run_one bp m
  let call c = Some (exec_call c)
end

module Native_engine = struct
  let engine = Exec.Native
  let available = Native.available
  let translates = true

  type lanes = {
    spec : Spec.t;
    nb : Native.batch option;
        (** [None] when native execution is unavailable or there are no
            tests *)
  }

  let lanes spec tests =
    {
      spec;
      nb =
        (if Array.length tests = 0 then None
         else
           Native.create_batch
             (Machine.create ~mem_size:spec.Spec.mem_size ())
             tests);
    }

  type prog = lanes * Native.batch * Native.t

  let prepare l p =
    Option.bind l.nb (fun nb ->
        Option.map (fun np -> (l, nb, np)) (Native.compile nb p))

  (* The worker runs every lane, so the batch-abort rule is applied
     after the run. *)
  let run (l, nb, np) ~order ~diverges f =
    Native.reset nb;
    if Native.exec np then None
    else begin
      let n = Native.lane_count nb in
      let fault lane = Native.fault nb ~lane in
      let rec diverging lane =
        lane < n
        && ((Option.is_some (fault lane) && diverges lane)
           || diverging (lane + 1))
      in
      if diverging 0 then Some { stop = Aborted; runs = n }
      else
        Some
          (score_lanes ~n ~order ~fault
             ~read:(fun lane -> Native.read_outputs nb ~lane l.spec)
             f)
    end

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
   never declines.  The fallback is built lazily: only Native uses it. *)

type prepared =
  order:int array ->
  diverges:(int -> bool) ->
  (int -> Spec.value array option -> bool) ->
  outcome

type lanes = {
  prepare_lanes : Program.t -> prepared;
  counters_now : unit -> counters;
}

let lanes (module E : S) spec tests =
  let l = E.lanes spec tests in
  let fallback = lazy (Batched_engine.lanes spec tests) in
  let prepares = ref 0 and runs = ref 0 and fallbacks = ref 0 in
  let prepare_lanes program : prepared =
    if E.translates then incr prepares;
    let fb = lazy (Batched_engine.compile (Lazy.force fallback) program) in
    let on_fallback ~order ~diverges f =
      let o = Batched_engine.exec (Lazy.force fb) ~order ~diverges f in
      fallbacks := !fallbacks + o.runs;
      o
    in
    match E.prepare l program with
    | None -> on_fallback
    | Some p ->
      fun ~order ~diverges f ->
        (match E.run p ~order ~diverges f with
         | Some o ->
           runs := !runs + o.runs;
           o
         | None -> on_fallback ~order ~diverges f)
  in
  let counters_now () =
    {
      prepares = !prepares;
      runs = !runs;
      fallbacks = !fallbacks;
      respawns = E.respawns l;
    }
  in
  { prepare_lanes; counters_now }

let prepare l program = l.prepare_lanes program
let run (p : prepared) = p
let counters l = l.counters_now ()

type call = unit -> Exec.result
type caller = Machine.t -> Program.t -> call

let caller (module E : S) template : caller =
  let c = E.caller template in
  let fallback = lazy (Batched_engine.caller template) in
  fun m program ->
    let fb =
      lazy (Batched_engine.compile_call (Lazy.force fallback) m program)
    in
    let on_fallback () = Batched_engine.exec_call (Lazy.force fb) in
    match E.prepare_call c m program with
    | None -> on_fallback
    | Some k ->
      fun () ->
        (match E.call k with
         | Some r -> r
         | None -> on_fallback ())

let prepare_call (c : caller) m program = c m program
let call (k : call) = k ()

(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark's own code around each public call
   into a layer: a span has a name ("<layer>.<call>"), a start, an end, a
   parent (the span open when it began) and a trace id shared by every
   span of one search run, one validation or one serve request.  [n] is
   the number of operations the span covers, for spans that time a batch
   of calls too short to time one by one.  Nothing is written until
   {!write}; with recording off, {!with_} is a direct call.  The
   benchmark opens spans from one thread only. *)

type span = {
  sid : int;
  name : string;
  trace : int;
  parent : int;  (** -1 at top level *)
  t0 : int64;
  t1 : int64;
  n : int;
}

let on = ref false
let next_id = ref 0
let recorded : span list ref = ref []

(* Open spans, innermost first: (sid, trace). *)
let stack : (int * int) list ref = ref []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let new_trace = fresh

let with_ ?(n = 1) ?trace name f =
  if not !on then f ()
  else begin
    let sid = fresh () in
    let parent, inherited = match !stack with (p, t) :: _ -> (p, t) | [] -> (-1, sid) in
    let trace = Option.value ~default:inherited trace in
    stack := (sid, trace) :: !stack;
    let t0 = Measure.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Measure.now_ns () in
        stack := List.tl !stack;
        recorded := { sid; name; trace; parent; t0; t1; n } :: !recorded)
  end

(* Spans recorded since the last [take], oldest first. *)
let take () =
  let s = List.rev !recorded in
  recorded := [];
  s

let dur s = Measure.secs_between s.t0 s.t1

(* Each layer's share of the summed self time, largest first.  A span's
   self time is its duration minus its children's, which nest inside it
   one after another. *)
let self_shares spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let by_layer = Hashtbl.create 16 in
  let total = ref 0. in
  List.iter
    (fun s ->
      let self = Float.max 0. (dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.sid)) in
      let layer =
        match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name
      in
      total := !total +. self;
      Hashtbl.replace by_layer layer
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer layer)))
    spans;
  Hashtbl.fold (fun l t acc -> (l, t /. Float.max !total 1e-12) :: acc) by_layer []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Median over the spans called [name] of seconds per operation. *)
let per_op spans name =
  match List.filter (fun s -> s.name = name && s.n > 0) spans with
  | [] -> None
  | named -> Some (Measure.median (List.map (fun s -> dur s /. float_of_int s.n) named))

(* One JSON object per line, times in µs from the first span's start. *)
let write path spans =
  match spans with
  | [] -> ()
  | first :: _ ->
    let base = List.fold_left (fun b s -> min b s.t0) first.t0 spans in
    let us t = Obs.Json.Float (Measure.secs_between base t *. 1e6) in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun s ->
            output_string oc
              (Obs.Json.to_string
                 (Obs.Json.Obj
                    [
                      ("id", Obs.Json.Int s.sid);
                      ("name", Obs.Json.String s.name);
                      ("trace", Obs.Json.Int s.trace);
                      ("parent", Obs.Json.Int s.parent);
                      ("start_us", us s.t0);
                      ("end_us", us s.t1);
                      ("n", Obs.Json.Int s.n);
                    ]));
            output_char oc '\n')
          spans)

type t = {
  version : int;
  fingerprint : string;
  domains : int;
  stop_reason : string option;
  elapsed_s : float;
  chains : Control.chain_pub option array;
}

let current_version = 1

(* ---------- fingerprint ---------- *)

let frange_str (r : Sandbox.Spec.frange) =
  Printf.sprintf "[%h,%h]" r.Sandbox.Spec.lo r.Sandbox.Spec.hi

let float_input_str = function
  | Sandbox.Spec.Fin_xmm_f64 (x, r) -> "f64:" ^ Reg.xmm_name x ^ frange_str r
  | Sandbox.Spec.Fin_xmm_f32 (x, r) -> "f32:" ^ Reg.xmm_name x ^ frange_str r
  | Sandbox.Spec.Fin_xmm_f32_hi (x, r) ->
    "f32hi:" ^ Reg.xmm_name x ^ frange_str r
  | Sandbox.Spec.Fin_mem_f32 (a, r) ->
    Printf.sprintf "m32:%Ld%s" a (frange_str r)
  | Sandbox.Spec.Fin_mem_f64 (a, r) ->
    Printf.sprintf "m64:%Ld%s" a (frange_str r)

let fixed_input_str = function
  | Sandbox.Spec.Fix_gp (g, v) ->
    Printf.sprintf "gp:%s=%Ld" (Reg.gp_name Reg.Q g) v
  | Sandbox.Spec.Fix_mem (a, bytes) -> Printf.sprintf "mem:%Ld=%s" a bytes

let output_str = function
  | Sandbox.Spec.Out_xmm_f64 x -> "of64:" ^ Reg.xmm_name x
  | Sandbox.Spec.Out_xmm_f32 x -> "of32:" ^ Reg.xmm_name x
  | Sandbox.Spec.Out_xmm_f32_hi x -> "of32hi:" ^ Reg.xmm_name x
  | Sandbox.Spec.Out_gp g -> "ogp:" ^ Reg.gp_name Reg.Q g

let add_program buf (p : Program.t) =
  Array.iter
    (fun slot ->
      match slot with
      | Program.Unused -> Buffer.add_string buf ";_"
      | Program.Active i ->
        Buffer.add_char buf ';';
        Buffer.add_string buf (Instr.to_string i))
    p.Program.slots

let metric_str = function
  | Cost.Ulp_metric -> "ulp"
  | Cost.Abs_metric -> "abs"
  | Cost.Rel_metric -> "rel"

let fingerprint ~spec ~params ~config ~tests ~domains =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "spec=%s" spec.Sandbox.Spec.name;
  add_program buf spec.Sandbox.Spec.program;
  List.iter (fun fi -> add "|%s" (float_input_str fi))
    spec.Sandbox.Spec.float_inputs;
  List.iter (fun fi -> add "|%s" (fixed_input_str fi))
    spec.Sandbox.Spec.fixed_inputs;
  List.iter (fun o -> add "|%s" (output_str o)) spec.Sandbox.Spec.outputs;
  add "|mem=%d" spec.Sandbox.Spec.mem_size;
  add "\nparams=eta:%Ld,k:%h,ws:%h,metric:%s,red:%s,perf:%s"
    params.Cost.eta params.Cost.k params.Cost.ws
    (metric_str params.Cost.metric)
    (match params.Cost.reduction with Cost.Max -> "max" | Cost.Sum -> "sum")
    (match params.Cost.perf_model with
     | Cost.Sum_latency -> "sum_latency"
     | Cost.Critical_path -> "critical_path");
  add "\nconfig=proposals:%d,strategy:%s,seed:%Ld,padding:%d,restarts:%d,screen:%b"
    config.Optimizer.proposals
    (Strategy.fingerprint config.Optimizer.strategy)
    config.Optimizer.seed config.Optimizer.padding config.Optimizer.restarts
    config.Optimizer.static_screen;
  add "\ndomains=%d" domains;
  Array.iter
    (fun (tc : Sandbox.Testcase.t) ->
      Buffer.add_string buf "\ntest=";
      List.iter
        (fun (g, v) -> add "g:%s=%Ld;" (Reg.gp_name Reg.Q g) v)
        tc.Sandbox.Testcase.gps;
      List.iter
        (fun (x, (lo, hi)) ->
          add "x:%s=%Ld:%Ld;" (Reg.xmm_name x) lo hi)
        tc.Sandbox.Testcase.xmms;
      List.iter
        (fun (a, bytes) -> add "m:%Ld=%s;" a bytes)
        tc.Sandbox.Testcase.mem_writes)
    tests;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------- JSON ---------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let json_of_int64 v = Obs.Json.String (Int64.to_string v)

let int64_of_json = function
  | Obs.Json.String s ->
    (try Int64.of_string s with _ -> bad "bad int64 %S" s)
  | _ -> bad "expected int64 string"

let json_of_program (p : Program.t) =
  Obs.Json.List
    (Array.to_list
       (Array.map
          (function
            | Program.Unused -> Obs.Json.Null
            | Program.Active i -> Obs.Json.String (Instr.to_string i))
          p.Program.slots))

let program_of_json = function
  | Obs.Json.List slots ->
    {
      Program.slots =
        Array.of_list
          (List.map
             (function
               | Obs.Json.Null -> Program.Unused
               | Obs.Json.String s -> (
                 match Parser.parse_instr s with
                 | Ok i -> Program.Active i
                 | Error e -> bad "unparseable instruction %S: %s" s e)
               | _ -> bad "program slot must be null or a string")
             slots);
    }
  | _ -> bad "expected a program (list of slots)"

let json_of_rng s = Obs.Json.List (Array.to_list (Array.map json_of_int64 s))

let rng_of_json = function
  | Obs.Json.List l when List.length l = 4 ->
    Array.of_list (List.map int64_of_json l)
  | _ -> bad "expected a 4-word rng state"

let json_of_ints a =
  Obs.Json.List (Array.to_list (Array.map (fun i -> Obs.Json.Int i) a))

let ints_of_json = function
  | Obs.Json.List l ->
    Array.of_list
      (List.map
         (function Obs.Json.Int i -> i | _ -> bad "expected an int") l)
  | _ -> bad "expected an int list"

let get obj key =
  match Obs.Json.member key obj with
  | Some v -> v
  | None -> bad "missing field %S" key

let to_int = function Obs.Json.Int i -> i | _ -> bad "expected an int"
let to_bool = function Obs.Json.Bool b -> b | _ -> bad "expected a bool"

let json_of_pub (p : Control.chain_pub) =
  Obs.Json.Obj
    [
      ("chain", Obs.Json.Int p.Control.chain);
      ("seed", json_of_int64 p.Control.seed);
      ("restart", Obs.Json.Int p.Control.restart);
      ("iter", Obs.Json.Int p.Control.iter);
      ("completed", Obs.Json.Bool p.Control.completed);
      ("rng", json_of_rng p.Control.rng);
      ("master_rng", json_of_rng p.Control.master_rng);
      ("cur", json_of_program p.Control.cur);
      ( "best_correct",
        match p.Control.best_correct with
        | None -> Obs.Json.Null
        | Some prog -> json_of_program prog );
      ("best_overall", json_of_program p.Control.best_overall);
      ("proposals_made", Obs.Json.Int p.Control.proposals_made);
      ("accepted", Obs.Json.Int p.Control.accepted);
      ("static_rejects", Obs.Json.Int p.Control.static_rejects);
      ("moves_proposed", json_of_ints p.Control.moves_proposed);
      ("moves_accepted", json_of_ints p.Control.moves_accepted);
      ( "trace_rev",
        Obs.Json.List
          (List.map
             (fun (i, b, c) ->
               Obs.Json.List
                 [ Obs.Json.Int i; Obs.Json.Float b; Obs.Json.Float c ])
             p.Control.trace_rev) );
    ]

let pub_of_json j =
  let f = get j in
  {
    Control.chain = to_int (f "chain");
    seed = int64_of_json (f "seed");
    restart = to_int (f "restart");
    iter = to_int (f "iter");
    completed = to_bool (f "completed");
    rng = rng_of_json (f "rng");
    master_rng = rng_of_json (f "master_rng");
    cur = program_of_json (f "cur");
    best_correct =
      (match f "best_correct" with
       | Obs.Json.Null -> None
       | p -> Some (program_of_json p));
    best_overall = program_of_json (f "best_overall");
    proposals_made = to_int (f "proposals_made");
    accepted = to_int (f "accepted");
    static_rejects = to_int (f "static_rejects");
    moves_proposed = ints_of_json (f "moves_proposed");
    moves_accepted = ints_of_json (f "moves_accepted");
    trace_rev =
      (match f "trace_rev" with
       | Obs.Json.List l ->
         List.map
           (function
             | Obs.Json.List [ i; b; c ] -> (
               match
                 ( i,
                   Obs.Json.to_float_opt b,
                   Obs.Json.to_float_opt c )
               with
               | Obs.Json.Int i, Some b, Some c -> (i, b, c)
               | _ -> bad "bad trace entry")
             | _ -> bad "bad trace entry")
           l
       | _ -> bad "expected a trace list");
  }

let to_json t =
  Obs.Json.Obj
    [
      ("version", Obs.Json.Int t.version);
      ("fingerprint", Obs.Json.String t.fingerprint);
      ("domains", Obs.Json.Int t.domains);
      ( "stop_reason",
        match t.stop_reason with
        | None -> Obs.Json.Null
        | Some r -> Obs.Json.String r );
      ("elapsed_s", Obs.Json.Float t.elapsed_s);
      ( "chains",
        Obs.Json.List
          (Array.to_list
             (Array.map
                (function None -> Obs.Json.Null | Some p -> json_of_pub p)
                t.chains)) );
    ]

let of_json j =
  try
    let f = get j in
    let version = to_int (f "version") in
    if version <> current_version then
      bad "snapshot version %d, this build reads %d" version current_version;
    let fingerprint =
      match f "fingerprint" with
      | Obs.Json.String s -> s
      | _ -> bad "expected a fingerprint string"
    in
    let domains = to_int (f "domains") in
    let stop_reason =
      match f "stop_reason" with
      | Obs.Json.Null -> None
      | Obs.Json.String s -> Some s
      | _ -> bad "expected a stop_reason string or null"
    in
    let elapsed_s =
      match Obs.Json.to_float_opt (f "elapsed_s") with
      | Some v -> v
      | None -> bad "expected elapsed_s"
    in
    let chains =
      match f "chains" with
      | Obs.Json.List l ->
        Array.of_list
          (List.map
             (function Obs.Json.Null -> None | p -> Some (pub_of_json p))
             l)
      | _ -> bad "expected a chains list"
    in
    if Array.length chains <> domains then
      bad "chains array length %d does not match domains %d"
        (Array.length chains) domains;
    Ok { version; fingerprint; domains; stop_reason; elapsed_s; chains }
  with Bad msg -> Error msg

(* ---------- I/O ---------- *)

(* The tmp name must be unique per writer: a fixed [path ^ ".tmp"] lets
   two concurrent checkpoints (two daemon jobs, or two processes sharing
   a snapshot directory) open the same tmp file, interleave their bytes,
   and rename a half-written or foreign image into place.  pid + a
   process-wide counter makes the staging file private to this write;
   the final rename is the one atomic step. *)
let tmp_counter = Atomic.make 0

let atomic_write_string ~path contents =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc contents)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write ~path t =
  atomic_write_string ~path (Obs.Json.to_string (to_json t) ^ "\n")

let read_json ~path decode =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error (path ^ ": truncated snapshot")
  | contents -> (
    match Obs.Json.of_string (String.trim contents) with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> decode j)

let read ~path = read_json ~path of_json

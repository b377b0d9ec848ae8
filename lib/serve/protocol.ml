type action =
  | Optimize of { eta : float; proposals : int; seed : int; domains : int }
  | Frontier of { etas : float list; proposals : int; seed : int }
  | Validate of { eta : float; rewrite : string; seed : int }
  | Ping
  | Shutdown

type request = {
  kernel : string;
  tenant : string;
  deadline_s : float option;
  action : action;
}

let default_tenant = "default"

let op_name = function
  | Optimize _ -> "optimize"
  | Frontier _ -> "frontier"
  | Validate _ -> "validate"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

(* ---------- encoding ---------- *)

let request_to_json r =
  let base =
    [
      ("op", Obs.Json.String (op_name r.action));
      ("kernel", Obs.Json.String r.kernel);
      ("tenant", Obs.Json.String r.tenant);
    ]
  in
  let deadline =
    match r.deadline_s with
    | None -> []
    | Some d -> [ ("deadline_s", Obs.Json.Float d) ]
  in
  let act =
    match r.action with
    | Optimize { eta; proposals; seed; domains } ->
      [
        ("eta", Obs.Json.Float eta);
        ("proposals", Obs.Json.Int proposals);
        ("seed", Obs.Json.Int seed);
        ("domains", Obs.Json.Int domains);
      ]
    | Frontier { etas; proposals; seed } ->
      [
        ("etas", Obs.Json.List (List.map (fun e -> Obs.Json.Float e) etas));
        ("proposals", Obs.Json.Int proposals);
        ("seed", Obs.Json.Int seed);
      ]
    | Validate { eta; rewrite; seed } ->
      [
        ("eta", Obs.Json.Float eta);
        ("rewrite", Obs.Json.String rewrite);
        ("seed", Obs.Json.Int seed);
      ]
    | Ping | Shutdown -> []
  in
  Obs.Json.Obj (base @ deadline @ act)

let request_to_string r = Obs.Json.to_string (request_to_json r)

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind

let str_field j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

(* Job-defining fields are strict: a field that is present but
   unparseable is a rejection, never a silent default — a mistyped
   request must not run a real, expensive job with parameters the
   client never asked for.  Only genuinely absent optional fields
   default. *)

let int_field ~default j key =
  match Obs.Json.member key j with
  | None -> Ok default
  | Some v -> (
    match Obs.Json.to_int_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "%s: expected an integer" key))

let opt_float_field j key =
  match Obs.Json.member key j with
  | None -> Ok None
  | Some v -> (
    match Obs.Json.to_float_opt v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "%s: expected a number" key))

let req_float_field j key =
  match Obs.Json.member key j with
  | None -> Error (Printf.sprintf "missing %s field" key)
  | Some v -> (
    match Obs.Json.to_float_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: expected a number" key))

(* η and the proposal budget must also make sense: a negative or NaN η
   would run as η = 0 under a memo key of its own *)
let eta_field j key =
  let* f = req_float_field j key in
  match Ulp.eta_of_float f with
  | Ok _ -> Ok f
  | Error e -> Error (Printf.sprintf "%s: %s" key e)

let proposals_field j =
  let* n = int_field ~default:200_000 j "proposals" in
  if n >= 0 then Ok n
  else Error (Printf.sprintf "proposals: %d is not an integer >= 0" n)

let request_of_json j =
  match j with
  | Obs.Json.Obj _ -> (
    let tenant =
      match str_field j "tenant" with
      | Some t when t <> "" -> t
      | _ -> default_tenant
    in
    let* deadline_s = opt_float_field j "deadline_s" in
    (* job ops execute a registry kernel; requiring the field here keeps
       a missing or typo'd kernel from surfacing downstream as the
       misleading [unknown kernel ""] *)
    let kernel_req () =
      match str_field j "kernel" with
      | Some k when k <> "" -> Ok k
      | _ -> Error "missing kernel field"
    in
    let mk kernel action = Ok { kernel; tenant; deadline_s; action } in
    let mk_control action =
      mk (Option.value ~default:"" (str_field j "kernel")) action
    in
    match str_field j "op" with
    | Some "ping" -> mk_control Ping
    | Some "shutdown" -> mk_control Shutdown
    | Some "optimize" ->
      let* kernel = kernel_req () in
      let* eta = eta_field j "eta" in
      let* proposals = proposals_field j in
      let* seed = int_field ~default:1 j "seed" in
      let* domains = int_field ~default:1 j "domains" in
      mk kernel (Optimize { eta; proposals; seed; domains })
    | Some "frontier" -> (
      let* kernel = kernel_req () in
      let* proposals = proposals_field j in
      let* seed = int_field ~default:1 j "seed" in
      match Obs.Json.member "etas" j with
      | Some (Obs.Json.List l) -> (
        let etas = List.map Obs.Json.to_float_opt l in
        match (etas, List.exists Option.is_none etas) with
        | [], _ | _, true ->
          Error "frontier: etas must be a non-empty list of numbers"
        | _, false -> (
          let etas = List.filter_map Fun.id etas in
          let invalid f =
            Result.fold ~ok:(fun _ -> None) ~error:Option.some
              (Ulp.eta_of_float f)
          in
          match List.find_map invalid etas with
          | Some e -> Error ("etas: " ^ e)
          | None -> mk kernel (Frontier { etas; proposals; seed })))
      | Some _ -> Error "frontier: etas must be a list"
      | None -> Error "frontier: missing etas list")
    | Some "validate" -> (
      let* kernel = kernel_req () in
      let* eta = eta_field j "eta" in
      let* seed = int_field ~default:1 j "seed" in
      match str_field j "rewrite" with
      | Some rw when rw <> "" -> mk kernel (Validate { eta; rewrite = rw; seed })
      | _ -> Error "validate: missing rewrite text")
    | Some op -> Error (Printf.sprintf "unknown op %S" op)
    | None -> Error "missing op field")
  | _ -> Error "request must be a JSON object"

let request_of_string s =
  match Obs.Json.of_string s with
  | Error e -> Error ("bad request JSON: " ^ e)
  | Ok j -> request_of_json j

(* ---------- result payloads (the "result" field of job_end) ---------- *)

let program_json p = Obs.Json.String (Program.to_string p)

let optimize_result_json (spec : Sandbox.Spec.t)
    (r : Search.Optimizer.result) =
  let target = spec.Sandbox.Spec.program in
  let target_latency = Latency.of_program target in
  let found, rewrite =
    match r.Search.Optimizer.best_correct with
    | Some p -> (true, p)
    | None -> (false, target)
  in
  let latency = Latency.of_program rewrite in
  Obs.Json.Obj
    [
      ("found", Obs.Json.Bool found);
      ("rewrite", program_json rewrite);
      ("loc", Obs.Json.Int (Program.length rewrite));
      ("latency", Obs.Json.Int latency);
      ( "speedup",
        Obs.Json.Float
          (float_of_int target_latency /. float_of_int (Stdlib.max 1 latency))
      );
      ( "stop_reason",
        Obs.Json.String
          (Search.Control.stop_reason_to_string
             r.Search.Optimizer.stop_reason) );
      ("proposals_made", Obs.Json.Int r.Search.Optimizer.proposals_made);
      ("failed_chains", Obs.Json.Int r.Search.Optimizer.failed_chains);
    ]

let frontier_result_json (r : Search.Frontier.result) =
  let point_json (p : Search.Frontier.point) =
    Obs.Json.Obj
      [
        ("eta", Obs.Json.Float (Ulp.to_float p.Search.Frontier.eta));
        ("rewrite", program_json p.Search.Frontier.rewrite);
        ("latency", Obs.Json.Int p.Search.Frontier.latency);
        ("speedup", Obs.Json.Float p.Search.Frontier.speedup);
        ( "validated_err_ulps",
          match p.Search.Frontier.validated_err with
          | None -> Obs.Json.Null
          | Some e -> Obs.Json.Float (Ulp.to_float e) );
      ]
  in
  Obs.Json.Obj
    [
      ( "points",
        Obs.Json.List (List.map point_json r.Search.Frontier.points) );
      ( "pareto",
        Obs.Json.List (List.map point_json r.Search.Frontier.pareto) );
      ("total_proposals", Obs.Json.Int r.Search.Frontier.total_proposals);
      ("demotions", Obs.Json.Int r.Search.Frontier.demotions);
      ("tests_added", Obs.Json.Int r.Search.Frontier.tests_added);
    ]

let validate_result_json (v : Validate.Driver.verdict) =
  Obs.Json.Obj
    [
      ( "max_err_ulps",
        Obs.Json.Float (Ulp.to_float v.Validate.Driver.max_err) );
      ("validated", Obs.Json.Bool v.Validate.Driver.validated);
      ("mixed", Obs.Json.Bool v.Validate.Driver.mixed);
      ("iterations", Obs.Json.Int v.Validate.Driver.iterations);
      ( "max_err_input",
        Obs.Json.List
          (Array.to_list
             (Array.map
                (fun x -> Obs.Json.Float x)
                v.Validate.Driver.max_err_input)) );
    ]

(* FPCore symbols admit no brackets; memory-cell inputs like v1[0]
   become v1_0. *)
let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> Buffer.add_char b c
      | ']' -> ()
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let lit f =
  if Float.is_nan f then "NAN"
  else if f = Float.infinity then "INFINITY"
  else if f = Float.neg_infinity then "(- INFINITY)"
  else if Float.is_integer f && Float.abs f <= 1e9 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%h" f

type ctx = {
  seen : (string, string) Hashtbl.t;
  mutable order : string list;  (* original names, reverse first-use order *)
}

let intern ctx name =
  match Hashtbl.find_opt ctx.seen name with
  | Some s -> s
  | None ->
    let s = sanitize name in
    Hashtbl.add ctx.seen name s;
    ctx.order <- name :: ctx.order;
    s

(* A binary32 operation's result is annotated; the context is binary64. *)
let rounded p body =
  match p with
  | Symbolic.P32 -> Printf.sprintf "(! :precision binary32 %s)" body
  | Symbolic.P64 -> body

let algebra ctx =
  {
    Symbolic.input = intern ctx;
    const = lit;
    op1 =
      (fun op p a ->
        match op, p with
        | Symbolic.Sqrt, _ -> rounded p (Printf.sprintf "(sqrt %s)" a)
        (* widening is exact *)
        | Symbolic.Cvt, Symbolic.P64 -> a
        | Symbolic.Cvt, Symbolic.P32 -> rounded p (Printf.sprintf "(cast %s)" a));
    op2 =
      (fun op p a b ->
        let sym =
          match op with
          | Symbolic.Add -> "+"
          | Symbolic.Sub -> "-"
          | Symbolic.Mul -> "*"
          | Symbolic.Div -> "/"
          | Symbolic.Min -> "fmin"
          | Symbolic.Max -> "fmax"
        in
        let body = Printf.sprintf "(%s %s %s)" sym a b in
        match op with
        (* min/max of two binary32 values is one of them: exact in any
           wider context, no rounding annotation needed *)
        | Symbolic.Min | Symbolic.Max -> body
        | Symbolic.Add | Symbolic.Sub | Symbolic.Mul | Symbolic.Div ->
          rounded p body);
  }

let pre_clause env name ctx =
  match env name with
  | None -> None
  | Some (i : Interval.itv) ->
    Some
      (Printf.sprintf "(<= %s %s %s)" (lit i.Interval.lo)
         (Hashtbl.find ctx.seen name)
         (lit i.Interval.hi))

let difference (spec : Sandbox.Spec.t) (pair : Symbolic.pair) =
  let env = Interval.env_of_spec spec in
  let n_out = Array.length pair.Symbolic.precs in
  try
    let cores =
      Array.to_list
        (Array.mapi
           (fun idx p ->
             let ctx = { seen = Hashtbl.create 8; order = [] } in
             let alg = algebra ctx in
             let te = Symbolic.fold alg p pair.Symbolic.target.(idx) in
             let re = Symbolic.fold alg p pair.Symbolic.rewrite.(idx) in
             let body =
               if Symbolic.same_output pair idx then "0"
               else Printf.sprintf "(- %s %s)" te re
             in
             let names = List.rev ctx.order in
             let args =
               String.concat " "
                 (List.map (fun n -> Hashtbl.find ctx.seen n) names)
             in
             let pres = List.filter_map (fun n -> pre_clause env n ctx) names in
             let pre =
               match pres with
               | [] -> ""
               | [ c ] -> Printf.sprintf "\n  :pre %s" c
               | ps -> Printf.sprintf "\n  :pre (and %s)" (String.concat " " ps)
             in
             let suffix = if n_out = 1 then "" else Printf.sprintf "_out%d" idx in
             Printf.sprintf
               "(FPCore %s_diff%s (%s)\n  :name \"%s: target - rewrite%s\"\n  :precision binary64%s\n  %s)"
               (sanitize spec.Sandbox.Spec.name)
               suffix args spec.Sandbox.Spec.name
               (if suffix = "" then "" else Printf.sprintf " (output %d)" idx)
               pre body)
           pair.Symbolic.precs)
    in
    Ok (String.concat "\n\n" cores)
  with Symbolic.Unsupported msg -> Error msg

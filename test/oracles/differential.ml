module M = Sandbox.Machine

type lanes =
  | Scalar of M.t  (* the engine's machine, restored per case *)
  | Batched of Sandbox.Batched.batch
  | Native of Sandbox.Native.batch

type t = {
  engine : Sandbox.Exec.engine;
  pristine : M.t;
  cases : Sandbox.Testcase.t array;
  lanes : lanes;
  mutable ran : int;
  mutable declined : int;
}

let create ?(mem_size = 4096) engine ~prepare cases =
  let pristine = M.create ~mem_size () in
  prepare pristine;
  let lanes =
    match (engine : Sandbox.Exec.engine) with
    | Sandbox.Exec.Interp ->
      invalid_arg "Differential.create: the interpreter is the reference"
    | Sandbox.Exec.Compiled -> Scalar (M.copy pristine)
    | Sandbox.Exec.Batched -> Batched (Sandbox.Batched.create_batch pristine cases)
    | Sandbox.Exec.Native ->
      (match Sandbox.Native.create_batch ~want_mem:true pristine cases with
       | Some b -> Native b
       | None -> failwith "Differential.create: the native worker did not start")
  in
  { engine; pristine; cases; lanes; ran = 0; declined = 0 }

type verdict =
  | Same
  | Declined
  | Differs of { lane : int; what : string }

type difference = {
  loc : Liveness.loc;
  part : string;
  left : int64;
  right : int64;
}

let outcome_equal (a : Sandbox.Exec.outcome) (b : Sandbox.Exec.outcome) =
  match (a, b) with
  | Sandbox.Exec.Finished, Sandbox.Exec.Finished -> true
  | Sandbox.Exec.Faulted f, Sandbox.Exec.Faulted g -> Sandbox.Semantics.equal_fault f g
  | _ -> false

let flags (m : M.t) =
  let f = m.M.flags in
  [ ("cf", f.M.cf); ("zf", f.M.zf); ("sf", f.M.sf); ("of", f.M.o_f); ("pf", f.M.pf) ]

let differences (a : M.t) (b : M.t) =
  if
    Bytes.equal a.M.regs b.M.regs
    && a.M.flags = b.M.flags
    && Sandbox.Memory.equal a.M.mem b.M.mem
  then []
  else begin
    let out = ref [] in
    (* [part] is only built for a component that differs *)
    let add loc part left right =
      if not (Int64.equal left right) then
        out := { loc; part = part (); left; right } :: !out
    in
    for i = 0 to 15 do
      let r = Reg.gp_of_index i in
      add (Liveness.Lgp r) (fun () -> Reg.gp_name Reg.Q r) (M.get_gp a r) (M.get_gp b r)
    done;
    for i = 0 to 15 do
      let r = Reg.xmm_of_index i in
      let alo, ahi = M.get_xmm a r and blo, bhi = M.get_xmm b r in
      add (Liveness.Lxmm r) (fun () -> Reg.xmm_name r ^ ".lo") alo blo;
      add (Liveness.Lxmm r) (fun () -> Reg.xmm_name r ^ ".hi") ahi bhi
    done;
    let bit v = if v then 1L else 0L in
    List.iter2
      (fun (name, va) (_, vb) -> add Liveness.Lflags (fun () -> name) (bit va) (bit vb))
      (flags a) (flags b);
    if not (Sandbox.Memory.equal a.M.mem b.M.mem) then begin
      let ma = Sandbox.Memory.unsafe_bytes a.M.mem
      and mb = Sandbox.Memory.unsafe_bytes b.M.mem in
      for i = 0 to Int.min (Bytes.length ma) (Bytes.length mb) - 1 do
        add Liveness.Lmem
          (fun () -> Printf.sprintf "mem[%d]" i)
          (Int64.of_int (Bytes.get_uint8 ma i))
          (Int64.of_int (Bytes.get_uint8 mb i))
      done
    end;
    List.rev !out
  end

let first_difference ?(reference = "interp") name ((ri : Sandbox.Exec.result), mi)
    ((re : Sandbox.Exec.result), me) =
  let vs fmt a b = Some (Printf.sprintf fmt reference a name b) in
  if not (outcome_equal ri.Sandbox.Exec.outcome re.Sandbox.Exec.outcome) then
    vs "outcome: %s %s vs %s %s"
      (Sandbox.Exec.outcome_to_string ri.Sandbox.Exec.outcome)
      (Sandbox.Exec.outcome_to_string re.Sandbox.Exec.outcome)
  else if ri.Sandbox.Exec.executed <> re.Sandbox.Exec.executed then
    vs "executed: %s %d vs %s %d" ri.Sandbox.Exec.executed re.Sandbox.Exec.executed
  else if ri.Sandbox.Exec.cycles <> re.Sandbox.Exec.cycles then
    vs "cycles: %s %d vs %s %d" ri.Sandbox.Exec.cycles re.Sandbox.Exec.cycles
  else
    match differences mi me with
    | [] -> None
    | d :: _ ->
      Some (Printf.sprintf "%s: %s 0x%Lx vs %s 0x%Lx" d.part reference d.left name d.right)

let check ?(on_reference = fun _ _ -> ()) t p =
  let name = Sandbox.Exec.engine_to_string t.engine in
  let reference lane =
    let m = M.copy t.pristine in
    Sandbox.Testcase.apply t.cases.(lane) m;
    let r = Sandbox.Exec.run m p in
    on_reference lane m;
    (r, m)
  in
  (* compare each lane's engine run, produced by [run lane], in order *)
  let compare_lanes run =
    t.ran <- t.ran + 1;
    let rec go lane =
      if lane >= Array.length t.cases then Same
      else
        match first_difference name (reference lane) (run lane) with
        | None -> go (lane + 1)
        | Some what -> Differs { lane; what }
    in
    go 0
  in
  match t.lanes with
  | Scalar m ->
    let cp = Sandbox.Compiled.compile m p in
    let verdict =
      compare_lanes (fun lane ->
          M.restore_from ~src:t.pristine ~dst:m;
          Sandbox.Testcase.apply t.cases.(lane) m;
          (Sandbox.Compiled.exec cp, m))
    in
    (* a write the dirty tracking missed would survive the restore *)
    M.restore_from ~src:t.pristine ~dst:m;
    (match (verdict, differences t.pristine m) with
     | Same, d :: _ ->
       let what = Printf.sprintf "restore_from left %s: 0x%Lx, pristine 0x%Lx" in
       Differs { lane = Array.length t.cases - 1; what = what d.part d.right d.left }
     | _ -> verdict)
  | Batched b ->
    Sandbox.Batched.reset b;
    let (_aborted : bool) = Sandbox.Batched.exec (Sandbox.Batched.compile b p) in
    compare_lanes (fun lane ->
        (Sandbox.Batched.result b ~lane, Sandbox.Batched.lane_machine b ~lane))
  | Native b ->
    Sandbox.Native.reset b;
    (match Sandbox.Native.compile b p with
     | None ->
       t.declined <- t.declined + 1;
       Declined
     | Some np ->
       if Sandbox.Native.exec np then begin
         t.ran <- t.ran + 1;
         Differs { lane = 0; what = "the native worker crashed" }
       end
       else
         compare_lanes (fun lane ->
             (Sandbox.Native.result b ~lane, Sandbox.Native.lane_machine b ~lane)))

let ran t = t.ran

let summary t =
  let name = Sandbox.Exec.engine_to_string t.engine in
  Printf.sprintf "interp vs %s: %d programs ran on %s, %d declined (fell back)" name
    t.ran name t.declined

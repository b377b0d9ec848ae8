type t = {
  spec : Sandbox.Spec.t;
  rewrite : Program.t;
  exec_target : Sandbox.Testcase.t -> Sandbox.Spec.value array option;
  exec_rewrite : Sandbox.Testcase.t -> Sandbox.Spec.value array option;
}

let top_eta = 0x1p64

let create ?(engine = Sandbox.Exec.Compiled) ?instance spec ~rewrite =
  let engine =
    match instance with
    | Some e -> e
    | None -> Sandbox.Engine.of_engine engine
  in
  let machine = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
  let pristine = Sandbox.Machine.copy machine in
  let caller = Sandbox.Engine.caller engine machine in
  (* Validation evaluates the same two programs millions of times, so
     both are prepared exactly once, here.  A runner installs one test
     case, executes, and reads the live outputs — [None] is a fault. *)
  let runner program =
    let call = Sandbox.Engine.prepare_call caller machine program in
    fun tc ->
      Sandbox.Machine.restore_from ~src:pristine ~dst:machine;
      Sandbox.Testcase.apply tc machine;
      match (Sandbox.Engine.call call).Sandbox.Exec.outcome with
      | Sandbox.Exec.Finished -> Some (Sandbox.Spec.read_outputs spec machine)
      | Sandbox.Exec.Faulted _ -> None
  in
  {
    spec;
    rewrite;
    exec_target = runner spec.Sandbox.Spec.program;
    exec_rewrite = runner rewrite;
  }

let spec t = t.spec

(* One target run + one rewrite run; [None] is divergent signal
   behaviour.  Every public evaluator is a view of this, so a combined
   query costs exactly one pair of executions. *)
let total_ulp t xs =
  let tc = Sandbox.Spec.testcase_of_floats t.spec xs in
  match t.exec_target tc with
  | None ->
    (* The spec's input ranges must keep the target from faulting; if it
       does anyway, charge it as divergent. *)
    None
  | Some expected ->
    (match t.exec_rewrite tc with
     | None -> None
     | Some actual ->
       let total = ref Ulp.zero in
       Array.iteri
         (fun i e ->
           total := Ulp.add_sat !total (Sandbox.Spec.value_ulp e actual.(i)))
         expected;
       Some !total)

let eval_ulp t xs =
  match total_ulp t xs with
  | None -> Ulp.max_value
  | Some u -> u

let eval t xs =
  match total_ulp t xs with
  | None -> top_eta
  | Some u -> Ulp.to_float u

let eval_both t xs =
  match total_ulp t xs with
  | None -> (top_eta, Ulp.max_value)
  | Some u -> (Ulp.to_float u, u)

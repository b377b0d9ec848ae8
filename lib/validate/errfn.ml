module S = Sandbox

type t = {
  spec : S.Spec.t;
  arity : int;
  machine : S.Machine.t;
  pristine : S.Machine.t;  (** the fixed inputs baked in *)
  plan : S.Spec.install_plan;
  outs : S.Spec.out_loc array;
  expected : Bytes.t;  (** the target's outputs, raw, 8 bytes each *)
  target : S.Engine.call;
  rewrite_call : S.Engine.call;
}

let top_eta = 0x1p64

let create ?(engine = S.Exec.Compiled) ?instance spec ~rewrite =
  let engine =
    match instance with
    | Some e -> e
    | None -> S.Engine.of_engine engine
  in
  let machine = S.Machine.create ~mem_size:spec.S.Spec.mem_size () in
  S.Testcase.apply (S.Spec.fixed_testcase spec) machine;
  let pristine = S.Machine.copy machine in
  let caller = S.Engine.caller engine machine in
  (* Validation evaluates the same two programs millions of times, so
     both are prepared exactly once, here. *)
  let outs = Array.of_list (List.map S.Spec.out_loc spec.S.Spec.outputs) in
  {
    spec;
    arity = S.Spec.arity spec;
    machine;
    pristine;
    plan = S.Spec.install_plan spec machine;
    outs;
    expected = Bytes.create (8 * Array.length outs);
    target = S.Engine.prepare_call caller machine spec.S.Spec.program;
    rewrite_call = S.Engine.prepare_call caller machine rewrite;
  }

let spec t = t.spec

(* Install [xs], run, and say whether the run finished. *)
let run t call xs =
  S.Machine.restore_from ~src:t.pristine ~dst:t.machine;
  S.Spec.install_floats t.plan t.machine xs;
  S.Engine.finished call

(* The distances of {!S.Spec.value_ulp}, on raw register bits: Ulp.dist64
   and Ulp.dist32 through each format's ordered index (Fp64.ordered,
   Fp32.ordered of the single the register holds), and the integer
   outputs' absolute difference.  [Search.Cost] keeps its own copies:
   under the dev profile's [-opaque] a call across modules would box
   their int64s. *)
let[@inline] dist64 a b =
  let oa = if a < 0L then Int64.sub Int64.min_int a else a in
  let ob = if b < 0L then Int64.sub Int64.min_int b else b in
  if oa >= ob then Int64.sub oa ob else Int64.sub ob oa

let[@inline] ordered32 b =
  let b = Int32.bits_of_float (Int32.float_of_bits b) in
  if b < 0l then Int32.sub Int32.min_int b else b

let[@inline] dist32 a b =
  let oa = ordered32 a and ob = ordered32 b in
  let d = if oa >= ob then Int32.sub oa ob else Int32.sub ob oa in
  Int64.logand (Int64.of_int32 d) 0xffff_ffffL

let[@inline] absdiff a b =
  let d = Int64.sub a b in
  if d >= 0L then d else Int64.neg d

(* Ulp.add_sat: an unsigned sum that sticks at all-ones. *)
let[@inline] add_sat a b =
  let s = Int64.add a b in
  if Int64.sub s Int64.min_int < Int64.sub a Int64.min_int then Ulp.max_value else s

let save_expected t =
  let regs = t.machine.S.Machine.regs in
  for k = 0 to Array.length t.outs - 1 do
    match t.outs.(k) with
    | S.Spec.O64 o | Ogp o -> Bytes.set_int64_le t.expected (8 * k) (Bytes.get_int64_le regs o)
    | O32 o -> Bytes.set_int32_le t.expected (8 * k) (Bytes.get_int32_le regs o)
  done

(* The total distance over the outputs, stored in [out]: a returned
   [int64] would be boxed. *)
let score_into t out =
  let regs = t.machine.S.Machine.regs in
  let total = ref Ulp.zero in
  for k = 0 to Array.length t.outs - 1 do
    let e = 8 * k in
    let d =
      match t.outs.(k) with
      | S.Spec.O64 o -> dist64 (Bytes.get_int64_le t.expected e) (Bytes.get_int64_le regs o)
      | O32 o -> dist32 (Bytes.get_int32_le t.expected e) (Bytes.get_int32_le regs o)
      | Ogp o -> absdiff (Bytes.get_int64_le t.expected e) (Bytes.get_int64_le regs o)
    in
    total := add_sat !total d
  done;
  Bytes.set_int64_le out 0 !total

(* One target run + one rewrite run, as an exact ULP count; divergent
   signal behaviour is {!Ulp.max_value}.  Every public evaluator is a view
   of this, so a combined query costs exactly one pair of executions.  A
   saturated sum also reads [max_value], and both map to [top_eta]. *)
let eval_into t xs out =
  if Array.length xs <> t.arity then
    invalid_arg "Errfn: input vector length differs from the spec's arity";
  (* The spec's input ranges must keep the target from faulting; if it
     does anyway, charge it as divergent. *)
  if not (run t t.target xs) then Bytes.set_int64_le out 0 Ulp.max_value
  else begin
    save_expected t;
    if run t t.rewrite_call xs then score_into t out
    else Bytes.set_int64_le out 0 Ulp.max_value
  end

let eval_ulp t xs =
  let count = Bytes.create 8 in
  eval_into t xs count;
  Bytes.get_int64_le count 0

let eval t xs = Ulp.to_float (eval_ulp t xs)

let eval_both t xs =
  let u = eval_ulp t xs in
  (Ulp.to_float u, u)

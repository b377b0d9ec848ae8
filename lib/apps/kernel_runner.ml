type t = {
  m : Sandbox.Machine.t;
  caller : Sandbox.Engine.caller;
  mutable prepared : (Program.t * Sandbox.Engine.call) list;
      (** per-runner cache of prepared programs, keyed by physical
          identity: the applications call a handful of fixed kernel
          programs millions of times, so each is prepared once on first
          use *)
  mutable cycles : int;
  mutable calls : int;
}

let v1_addr = Kernels.Aek_kernels.v1_addr
let v2_addr = Kernels.Aek_kernels.v2_addr

(* An application swaps between at most a few kernels per runner; bound
   the cache anyway so a caller generating programs on the fly degrades
   to prepare-per-call rather than leaking. *)
let max_cached = 16

let create ?(engine = Sandbox.Exec.Compiled) () =
  let m = Sandbox.Machine.create ~mem_size:4096 () in
  { m; caller = Sandbox.Engine.caller (Sandbox.Engine.of_engine engine) m;
    prepared = []; cycles = 0; calls = 0 }

let cycles t = t.cycles
let calls t = t.calls

let reset_counters t =
  t.cycles <- 0;
  t.calls <- 0

(* Zero every location a pool-drawn rewrite can observe: scratch xmm0–7,
   rax/rcx/rdx, flags, the spill window around rsp, and the two vector
   buffers. *)
let reset t =
  let m = t.m in
  (* xmm0–7: the first eight 16-byte xmm slots of the register file *)
  Bytes.fill m.Sandbox.Machine.regs Sandbox.Machine.xmm_base (8 * 16) '\000';
  Sandbox.Machine.set_gp m Reg.Rax 0L;
  Sandbox.Machine.set_gp m Reg.Rcx 0L;
  Sandbox.Machine.set_gp m Reg.Rdx 0L;
  Sandbox.Machine.set_gp m Reg.Rdi v1_addr;
  Sandbox.Machine.set_gp m Reg.Rsi v2_addr;
  Sandbox.Machine.set_gp m Reg.Rsp (Sandbox.Machine.default_rsp m);
  m.Sandbox.Machine.flags.Sandbox.Machine.cf <- false;
  m.Sandbox.Machine.flags.Sandbox.Machine.zf <- false;
  m.Sandbox.Machine.flags.Sandbox.Machine.sf <- false;
  m.Sandbox.Machine.flags.Sandbox.Machine.o_f <- false;
  m.Sandbox.Machine.flags.Sandbox.Machine.pf <- false;
  let rsp = Sandbox.Machine.default_rsp m in
  Sandbox.Memory.set_bytes m.Sandbox.Machine.mem (Int64.sub rsp 32L)
    (String.make 32 '\000');
  Sandbox.Memory.set_bytes m.Sandbox.Machine.mem v1_addr (String.make 16 '\000');
  Sandbox.Memory.set_bytes m.Sandbox.Machine.mem v2_addr (String.make 16 '\000')

let prepared_for t program =
  match List.assq_opt program t.prepared with
  | Some call -> call
  | None ->
    let call = Sandbox.Engine.prepare_call t.caller t.m program in
    if List.length t.prepared >= max_cached then t.prepared <- [];
    t.prepared <- (program, call) :: t.prepared;
    call

let run t program =
  let r = Sandbox.Engine.call (prepared_for t program) in
  t.cycles <- t.cycles + r.Sandbox.Exec.cycles;
  t.calls <- t.calls + 1;
  match r.Sandbox.Exec.outcome with
  | Sandbox.Exec.Finished -> ()
  | Sandbox.Exec.Faulted f ->
    failwith ("Kernel_runner: kernel faulted: " ^ Sandbox.Semantics.fault_to_string f)

let set_f32_pair m r (lo, hi) =
  let bits x = Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xffff_ffffL in
  Sandbox.Machine.set_xmm m r
    (Int64.logor (bits lo) (Int64.shift_left (bits hi) 32), 0L)

let put_vec_regs t (v : Vec3.t) =
  set_f32_pair t.m Reg.Xmm0 (v.Vec3.x, v.Vec3.y);
  Sandbox.Machine.set_f32 t.m Reg.Xmm1 v.Vec3.z

let put_vec_mem t addr (v : Vec3.t) =
  Sandbox.Memory.set_bytes t.m.Sandbox.Machine.mem addr
    (Sandbox.Testcase.f32_bytes v.Vec3.x
    ^ Sandbox.Testcase.f32_bytes v.Vec3.y
    ^ Sandbox.Testcase.f32_bytes v.Vec3.z)

let get_vec t =
  {
    Vec3.x = Sandbox.Machine.get_f32 t.m Reg.Xmm0;
    Vec3.y = Sandbox.Machine.get_f32_hi t.m Reg.Xmm0;
    Vec3.z = Sandbox.Machine.get_f32 t.m Reg.Xmm1;
  }

let exp64 t program x =
  reset t;
  Sandbox.Machine.set_f64 t.m Reg.Xmm0 x;
  run t program;
  Sandbox.Machine.get_f64 t.m Reg.Xmm0

let scalar64 = exp64

let scale t program v k =
  reset t;
  put_vec_regs t v;
  Sandbox.Machine.set_f32 t.m Reg.Xmm2 k;
  run t program;
  get_vec t

let dot t program v1 v2 =
  reset t;
  put_vec_regs t v1;
  put_vec_mem t v1_addr v2;
  run t program;
  Sandbox.Machine.get_f32 t.m Reg.Xmm0

let add3 t program v1 v2 =
  reset t;
  put_vec_regs t v1;
  put_vec_mem t v1_addr v2;
  run t program;
  get_vec t

let delta t program v1 v2 r1 r2 =
  reset t;
  Sandbox.Machine.set_f32 t.m Reg.Xmm0 r1;
  Sandbox.Machine.set_f32 t.m Reg.Xmm1 r2;
  put_vec_mem t v1_addr v1;
  put_vec_mem t v2_addr v2;
  run t program;
  get_vec t

(* Taint-differential oracle for the Liveness def/use/kill tables.

   For every opcode × shape the operand pools can generate, instantiate a
   handful of concrete instructions (distinct-register, aliased-register,
   and per-immediate/per-addressing-mode variants), run each as a one-slot
   program on seeded random machines under EVERY available engine, and
   check the tables against what the machine actually did:

   - writes ⊆ defs: diffing the pre/post state may only show changes at
     claimed def locations;
   - non-uses are unread: perturb each location ℓ ∉ uses(i) and re-run.
     Every location other than ℓ must end bit-identical to the baseline
     run, the fault outcome must be identical, and ℓ itself must obey a
     per-component merge rule (per flag, per 64-bit register lane, per
     memory byte: the component equals the baseline's result or survives
     from the perturbed input — nothing else);
   - kills fully overwrite: if additionally ℓ ∈ kills(i), the merge rule
     tightens to bit-identity — the perturbed input must not survive at
     all.  This is what catches partial flag writers (inc/dec preserve CF;
     a shift whose masked count is zero writes no flags).

   Locations ℓ ∈ uses(i) are exempt (the tables claim the value matters),
   which is exactly why kills ∩ uses entries — setcc, the scalar merge
   forms — need no special-casing: the backward transfer function re-adds
   them through uses. *)

type violation = {
  instr : Instr.t;
  engine : Sandbox.Exec.engine;
  detail : string;
}

let violation_to_string v =
  Printf.sprintf "%s [%s]: %s" (Instr.to_string v.instr)
    (Sandbox.Exec.engine_to_string v.engine)
    v.detail

(* ----- instantiation ----- *)

let mem_size = 512
let gp_pool = [| Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx |]
let xmm_pool = [| Reg.Xmm0; Reg.Xmm1; Reg.Xmm2; Reg.Xmm3; Reg.Xmm4; Reg.Xmm5 |]

(* rsi holds arena base + 128 (16-aligned), rdi holds the index 3. *)
let mem_candidates =
  [
    { Operand.base = Some Reg.Rsi; index = None; disp = 16 };
    { Operand.base = Some Reg.Rsi; index = Some (Reg.Rdi, 8); disp = 8 };
  ]

(* 0 and 32 catch count-masking flag behaviour; 63 the Q-width extreme. *)
let imm8_candidates = [ 0L; 1L; 3L; 32L; 63L ]
let imm32_candidates = [ 0L; 1L; 1023L ]
let imm64_candidates = [ 0L; 1L; Int64.min_int ]

let nth_mod l k = List.nth l (k mod List.length l)

(* Operands for variant [k] of [shape]; [aliased] collapses all registers
   of a class onto one so dst = src cases are exercised. *)
let operands_of_shape shape ~aliased k =
  Array.mapi
    (fun pos kind ->
      match kind with
      | Shape.K_gp _ ->
        Operand.Gp (if aliased then Reg.Rax else gp_pool.(pos mod Array.length gp_pool))
      | Shape.K_xmm ->
        Operand.Xmm (if aliased then Reg.Xmm1 else xmm_pool.(pos mod Array.length xmm_pool))
      | Shape.K_imm8 -> Operand.Imm (nth_mod imm8_candidates k)
      | Shape.K_imm32 -> Operand.Imm (nth_mod imm32_candidates k)
      | Shape.K_imm64 -> Operand.Imm (nth_mod imm64_candidates k)
      | Shape.K_mem _ -> Operand.Mem (nth_mod mem_candidates k))
    shape

let variants_of_shape shape =
  let sweep =
    Array.fold_left
      (fun acc kind ->
        Stdlib.max acc
          (match kind with
           | Shape.K_imm8 -> List.length imm8_candidates
           | Shape.K_imm32 -> List.length imm32_candidates
           | Shape.K_imm64 -> List.length imm64_candidates
           | Shape.K_mem _ -> List.length mem_candidates
           | Shape.K_gp _ | Shape.K_xmm -> 1))
      1 shape
  in
  let count p = Array.fold_left (fun n k -> if p k then n + 1 else n) 0 shape in
  let can_alias =
    count (function Shape.K_gp _ -> true | _ -> false) >= 2
    || count (function Shape.K_xmm -> true | _ -> false) >= 2
  in
  let distinct = List.init sweep (fun k -> operands_of_shape shape ~aliased:false k) in
  let aliased =
    if can_alias then List.init sweep (fun k -> operands_of_shape shape ~aliased:true k)
    else []
  in
  distinct @ aliased

let instances () =
  List.concat_map
    (fun op ->
      List.concat_map
        (fun shape ->
          List.map
            (fun operands -> Instr.make_unchecked op operands)
            (variants_of_shape shape))
        (Shape.shapes op))
    Opcode.all

(* ----- machine states ----- *)

let random_machine g =
  let m = Sandbox.Machine.create ~mem_size () in
  let base = Sandbox.Memory.base m.Sandbox.Machine.mem in
  for i = 0 to 15 do
    Sandbox.Machine.set_gp m (Reg.gp_of_index i) (Rng.Xoshiro256.next g)
  done;
  for i = 0 to 15 do
    let lo = Rng.Xoshiro256.next g in
    let hi = Rng.Xoshiro256.next g in
    Sandbox.Machine.set_xmm m (Reg.xmm_of_index i) (lo, hi)
  done;
  let f = m.Sandbox.Machine.flags in
  let bits = Rng.Xoshiro256.next g in
  let bit k = Int64.logand (Int64.shift_right_logical bits k) 1L = 1L in
  f.Sandbox.Machine.cf <- bit 0;
  f.Sandbox.Machine.zf <- bit 1;
  f.Sandbox.Machine.sf <- bit 2;
  f.Sandbox.Machine.o_f <- bit 3;
  f.Sandbox.Machine.pf <- bit 4;
  let addr = ref base in
  for _ = 1 to mem_size / 8 do
    Sandbox.Memory.write_exn m.Sandbox.Machine.mem !addr 8 (Rng.Xoshiro256.next g);
    addr := Int64.add !addr 8L
  done;
  (* pin the addressing environment: rsi = a 16-aligned in-arena pointer,
     rdi = a small index, rsp = where Machine.create put it *)
  Sandbox.Machine.set_gp m Reg.Rsi (Int64.add base 128L);
  Sandbox.Machine.set_gp m Reg.Rdi 3L;
  Sandbox.Machine.set_gp m Reg.Rsp (Sandbox.Machine.default_rsp m);
  m

(* ----- perturbations ----- *)

type pert = {
  ploc : Liveness.loc;
  pname : string;
  apply : Sandbox.Machine.t -> unit;
}

let flip_gp r m =
  Sandbox.Machine.set_gp m r
    (Int64.logxor (Sandbox.Machine.get_gp m r) 0x5a5a_5a5a_5a5a_5a5aL)

let flip_xmm r m =
  let lo, hi = Sandbox.Machine.get_xmm m r in
  Sandbox.Machine.set_xmm m r
    (Int64.logxor lo 0x5a5a_5a5a_5a5a_5a5aL, Int64.logxor hi 0xa5a5_a5a5_a5a5_a5a5L)

let flip_mem_byte off m =
  let mem = m.Sandbox.Machine.mem in
  let addr = Int64.add (Sandbox.Memory.base mem) (Int64.of_int off) in
  let b = Sandbox.Memory.read_exn mem addr 1 in
  Sandbox.Memory.write_exn mem addr 1 (Int64.logxor b 0xffL)

let perturbations =
  List.map
    (fun r ->
      {
        ploc = Liveness.Lgp r;
        pname = Reg.gp_name Reg.Q r;
        apply = flip_gp r;
      })
    [ Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx; Reg.Rsi; Reg.Rdi; Reg.Rsp; Reg.R8 ]
  @ List.map
      (fun r ->
        {
          ploc = Liveness.Lxmm r;
          pname = Reg.xmm_name r;
          apply = flip_xmm r;
        })
      [ Reg.Xmm0; Reg.Xmm1; Reg.Xmm2; Reg.Xmm3; Reg.Xmm4; Reg.Xmm5; Reg.Xmm6 ]
  @ List.map
      (fun (name, apply) -> { ploc = Liveness.Lflags; pname = name; apply })
      [
        ("cf", fun m -> m.Sandbox.Machine.flags.Sandbox.Machine.cf <- not m.Sandbox.Machine.flags.Sandbox.Machine.cf);
        ("zf", fun m -> m.Sandbox.Machine.flags.Sandbox.Machine.zf <- not m.Sandbox.Machine.flags.Sandbox.Machine.zf);
        ("sf", fun m -> m.Sandbox.Machine.flags.Sandbox.Machine.sf <- not m.Sandbox.Machine.flags.Sandbox.Machine.sf);
        ("of", fun m -> m.Sandbox.Machine.flags.Sandbox.Machine.o_f <- not m.Sandbox.Machine.flags.Sandbox.Machine.o_f);
        ("pf", fun m -> m.Sandbox.Machine.flags.Sandbox.Machine.pf <- not m.Sandbox.Machine.flags.Sandbox.Machine.pf);
      ]
  @ List.map
      (fun off ->
        {
          ploc = Liveness.Lmem;
          pname = Printf.sprintf "mem[%d]" off;
          apply = flip_mem_byte off;
        })
      [ 8; 144; 160 ]

(* ----- state comparison ----- *)

let flag_list (m : Sandbox.Machine.t) =
  let f = m.Sandbox.Machine.flags in
  [
    ("cf", f.Sandbox.Machine.cf);
    ("zf", f.Sandbox.Machine.zf);
    ("sf", f.Sandbox.Machine.sf);
    ("of", f.Sandbox.Machine.o_f);
    ("pf", f.Sandbox.Machine.pf);
  ]

(* All (component, value) differences between two machines, at the merge
   rule's granularity: 64-bit GP registers, 64-bit xmm lanes, single
   flags, single memory bytes. *)
let diff_components (a : Sandbox.Machine.t) (b : Sandbox.Machine.t) =
  let out = ref [] in
  let gp m i = Sandbox.Machine.get_gp m (Reg.gp_of_index i) in
  (* xmm lane [i]: the low quad of xmm[i/2] when [i] is even *)
  let lane m i =
    let lo, hi = Sandbox.Machine.get_xmm m (Reg.xmm_of_index (i / 2)) in
    if i mod 2 = 0 then lo else hi
  in
  for i = 15 downto 0 do
    if not (Int64.equal (gp a i) (gp b i)) then
      out := (Liveness.Lgp (Reg.gp_of_index i), Reg.gp_name Reg.Q (Reg.gp_of_index i)) :: !out
  done;
  for i = 31 downto 0 do
    if not (Int64.equal (lane a i) (lane b i)) then
      out :=
        ( Liveness.Lxmm (Reg.xmm_of_index (i / 2)),
          Printf.sprintf "%s.%s" (Reg.xmm_name (Reg.xmm_of_index (i / 2)))
            (if i mod 2 = 0 then "lo" else "hi") )
        :: !out
  done;
  List.iter2
    (fun (n, va) (_, vb) ->
      if va <> vb then out := (Liveness.Lflags, n) :: !out)
    (flag_list a) (flag_list b);
  let ma = Sandbox.Memory.unsafe_bytes a.Sandbox.Machine.mem in
  let mb = Sandbox.Memory.unsafe_bytes b.Sandbox.Machine.mem in
  if not (Bytes.equal ma mb) then
    for i = Bytes.length ma - 1 downto 0 do
      if Bytes.get ma i <> Bytes.get mb i then
        out := (Liveness.Lmem, Printf.sprintf "mem[%d]" i) :: !out
    done;
  !out

let loc_equal (a : Liveness.loc) b = a = b

let outcome_eq (a : Sandbox.Exec.result) (b : Sandbox.Exec.result) =
  a.Sandbox.Exec.outcome = b.Sandbox.Exec.outcome
  && a.Sandbox.Exec.executed = b.Sandbox.Exec.executed

(* ----- the checks ----- *)

let check_instance ~violations instr base_machine (engine, caller) =
  let run_engine m p =
    Sandbox.Engine.call (Sandbox.Engine.prepare_call caller m p)
  in
  let program = Program.of_instrs [ instr ] in
  let fail detail = violations := { instr; engine; detail } :: !violations in
  let defs = Liveness.defs instr in
  let uses = Liveness.uses instr in
  let kills = Liveness.kills instr in
  if not (Liveness.Locset.subset kills defs) then
    fail
      (Printf.sprintf "kills ⊄ defs: kills={%s} defs={%s}"
         (String.concat "," (List.map Liveness.loc_to_string (Liveness.Locset.elements kills)))
         (String.concat "," (List.map Liveness.loc_to_string (Liveness.Locset.elements defs))));
  (* baseline run *)
  let ma = Sandbox.Machine.copy base_machine in
  let res_a = run_engine ma program in
  (* writes ⊆ defs *)
  List.iter
    (fun (loc, comp) ->
      if not (Liveness.Locset.mem loc defs) then
        fail (Printf.sprintf "wrote %s but defs omit %s" comp (Liveness.loc_to_string loc)))
    (diff_components base_machine ma);
  (* each claimed non-use is unread *)
  List.iter
    (fun pert ->
      if not (Liveness.Locset.mem pert.ploc uses) then begin
        let mb = Sandbox.Machine.copy base_machine in
        pert.apply mb;
        let mb_pre = Sandbox.Machine.copy mb in
        let res_b = run_engine mb program in
        if not (outcome_eq res_a res_b) then
          fail
            (Printf.sprintf "perturbing non-use %s changed the outcome" pert.pname)
        else begin
          let strict = Liveness.Locset.mem pert.ploc kills in
          let d_vs_baseline = diff_components ma mb in
          let d_vs_perturbed_input = diff_components mb_pre mb in
          List.iter
            (fun (loc, comp) ->
              if not (loc_equal loc pert.ploc) then
                (* a location we did not touch ended up different: the
                   instruction read pert.ploc (uses is incomplete) *)
                fail
                  (Printf.sprintf
                     "perturbing non-use %s changed %s: uses is missing it"
                     pert.pname comp)
              else if strict then
                fail
                  (Printf.sprintf
                     "%s in kills but the perturbed input survived at %s"
                     pert.pname comp)
              else if
                (* merge rule: a component of ℓ that differs from the
                   baseline result must carry the perturbed input verbatim
                   — any third value means ℓ's value flowed into the
                   computation, i.e. uses is missing ℓ *)
                List.exists
                  (fun (l2, c2) -> loc_equal l2 loc && String.equal c2 comp)
                  d_vs_perturbed_input
              then
                fail
                  (Printf.sprintf
                     "component %s of non-use %s is neither the baseline \
                      result nor the perturbed input"
                     comp pert.pname))
            d_vs_baseline
        end
      end)
    perturbations

let default_seed = 0x5eed_0f_04ac1eL

let run ?(states = 2) ?(seed = default_seed) () =
  let violations = ref [] in
  let g = Rng.Xoshiro256.create seed in
  let machines = List.init states (fun _ -> random_machine g) in
  (* every machine has the same arena, so one caller per engine serves
     them all *)
  let template = Sandbox.Machine.create ~mem_size () in
  let engines =
    List.map
      (fun e ->
        (e, Sandbox.Engine.caller (Sandbox.Engine.of_engine e) template))
      (List.filter Sandbox.Engine.available Sandbox.Engine.all)
  in
  let all = instances () in
  List.iter
    (fun instr ->
      List.iter
        (fun m ->
          List.iter
            (check_instance ~violations instr m)
            engines)
        machines)
    all;
  List.rev !violations

let covered_instances () = List.length (instances ())

(* Taint-differential oracle for the Liveness def/use/kill tables.

   Run every instance of the matrix's taint sweep ([Matrix.taint]:
   distinct-register, aliased-register, and per-immediate/per-addressing-
   mode variants) as a one-slot program on seeded random machines under
   EVERY available engine, and check the tables against what the machine
   actually did:

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

let mem_size = 512

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

(* ----- the checks ----- *)

let outcome_eq (a : Sandbox.Exec.result) (b : Sandbox.Exec.result) =
  Differential.outcome_equal a.Sandbox.Exec.outcome b.Sandbox.Exec.outcome
  && a.Sandbox.Exec.executed = b.Sandbox.Exec.executed

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
    (fun (d : Differential.difference) ->
      if not (Liveness.Locset.mem d.loc defs) then
        fail (Printf.sprintf "wrote %s but defs omit %s" d.part (Liveness.loc_to_string d.loc)))
    (Differential.differences base_machine ma);
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
          let d_vs_perturbed_input = Differential.differences mb_pre mb in
          List.iter
            (fun (d : Differential.difference) ->
              if d.loc <> pert.ploc then
                (* a location we did not touch ended up different: the
                   instruction read pert.ploc (uses is incomplete) *)
                fail
                  (Printf.sprintf
                     "perturbing non-use %s changed %s: uses is missing it"
                     pert.pname d.part)
              else if strict then
                fail
                  (Printf.sprintf
                     "%s in kills but the perturbed input survived at %s"
                     pert.pname d.part)
              else if
                (* merge rule: a component of ℓ that differs from the
                   baseline result must carry the perturbed input verbatim
                   — any third value means ℓ's value flowed into the
                   computation, i.e. uses is missing ℓ *)
                List.exists
                  (fun (e : Differential.difference) -> e.loc = d.loc && e.part = d.part)
                  d_vs_perturbed_input
              then
                fail
                  (Printf.sprintf
                     "component %s of non-use %s is neither the baseline \
                      result nor the perturbed input"
                     d.part pert.pname))
            (Differential.differences ma mb)
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
  let all = Matrix.instances Matrix.taint in
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

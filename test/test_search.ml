(* Tests for the search library: operand/opcode pools, the four proposal
   moves and their undo, the ULP cost function, acceptance rules, and the
   optimizer end-to-end on small kernels. *)

let exp_spec = Kernels.S3d.exp_spec
let add_spec = Kernels.Aek_kernels.add_spec

let pools_of spec = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec

let pools_tests =
  [
    Alcotest.test_case "imm64 pool holds the target's constants" `Quick (fun () ->
        let pools = pools_of exp_spec in
        let imm64s = Search.Pools.operands_of_kind pools Shape.K_imm64 in
        let has v =
          Array.exists (fun o -> Operand.equal o (Operand.Imm v)) imm64s
        in
        Alcotest.(check bool)
          "log2e constant present" true
          (has (Int64.bits_of_float (1. /. Float.log 2.))));
    Alcotest.test_case "mem pool holds the target's memory operands" `Quick (fun () ->
        let pools = pools_of add_spec in
        let mems = Search.Pools.operands_of_kind pools (Shape.K_mem Shape.M32) in
        Alcotest.(check bool) "nonempty" true (Array.length mems > 0));
    Alcotest.test_case "no mem operands for register-only kernel" `Quick (fun () ->
        let pools = pools_of Kernels.Aek_kernels.scale_spec in
        let mems = Search.Pools.operands_of_kind pools (Shape.K_mem Shape.M128) in
        (* scale spills through rsp, so the pool is actually nonempty; the
           libimf sin kernel has no memory operands at all. *)
        ignore mems;
        let pools_sin = pools_of Kernels.Libimf.sin_spec in
        Alcotest.(check int)
          "sin mem pool empty" 0
          (Array.length (Search.Pools.operands_of_kind pools_sin (Shape.K_mem Shape.M64))));
    Alcotest.test_case "opcode pool excludes shapes without operands" `Quick (fun () ->
        let pools = pools_of Kernels.Libimf.sin_spec in
        let ops = Search.Pools.all_opcodes pools in
        (* lddqu only has an m128 form, which sin cannot instantiate *)
        Alcotest.(check bool)
          "lddqu excluded" false
          (Array.exists (fun op -> Opcode.equal op Opcode.Lddqu) ops);
        Alcotest.(check bool)
          "addsd included" true
          (Array.exists (fun op -> Opcode.equal op Opcode.Addsd) ops));
    Alcotest.test_case "opcode_move respects the shape" `Quick (fun () ->
        let pools = pools_of exp_spec in
        let i = Instr.make Opcode.Mulsd [ Operand.Xmm Reg.Xmm2; Operand.Xmm Reg.Xmm1 ] in
        let k = Shape.position i.Instr.op i.Instr.operands in
        let mv = Search.Pools.opcode_move pools i.Instr.op k in
        let ops = mv.Search.Pools.candidates in
        Alcotest.(check bool) "the xx shape" true
          (Shape.equal_shape mv.Search.Pools.shape [| Shape.K_xmm; Shape.K_xmm |]);
        Alcotest.(check bool)
          "addsd has xx shape" true
          (Array.exists (fun op -> Opcode.equal op Opcode.Addsd) ops);
        Alcotest.(check bool)
          "movabs lacks xx shape" false
          (Array.exists (fun op -> Opcode.equal op Opcode.Movabs) ops);
        Alcotest.(check bool) "mulsd is itself" true
          (Opcode.equal ops.(mv.Search.Pools.self) Opcode.Mulsd));
    Alcotest.test_case "opcode_move is the scan over all_opcodes" `Quick
      (fun () ->
        (* The move table against the definition it replaced: for every
           opcode and each of its shapes, the all_opcodes admitting that
           shape (a filter) and the opcode's index among them (a scan
           with Opcode.equal), on pools of every operand-availability
           mask the registry kernels build, and of two targets with
           narrower pools. *)
        let narrow =
          let spec = Kernels.Libimf.sin_spec in
          let only_xmm =
            Program.of_instrs
              [ Instr.make Opcode.Addsd [ Operand.Xmm Reg.Xmm1; Operand.Xmm Reg.Xmm0 ] ]
          in
          [ ("empty target", Search.Pools.make ~target:(Program.of_instrs []) ~spec);
            ("addsd target", Search.Pools.make ~target:only_xmm ~spec) ]
        in
        let pools =
          narrow
          @ List.map
              (fun (name, (spec : Sandbox.Spec.t)) -> (name, pools_of spec))
              Kernels.Registry.all
        in
        let checked = ref 0 in
        List.iter
          (fun (name, pools) ->
            let opcodes = Array.to_list (Search.Pools.all_opcodes pools) in
            List.iter
              (fun op ->
                List.iteri
                  (fun k shape ->
                    let filtered =
                      List.filter
                        (fun op' -> List.exists (Shape.equal_shape shape) (Shape.shapes op'))
                        opcodes
                    in
                    let self = ref (-1) in
                    List.iteri (fun j op' -> if Opcode.equal op' op then self := j) filtered;
                    let mv = Search.Pools.opcode_move pools op k in
                    let got = Array.to_list mv.Search.Pools.candidates in
                    incr checked;
                    if
                      not
                        (List.equal Opcode.equal filtered got
                        && !self = mv.Search.Pools.self
                        && mv.Search.Pools.shape == shape)
                    then
                      Alcotest.failf "%s, %s shape %d: [%s] self %d, table [%s] self %d" name
                        (Opcode.to_string op) k
                        (String.concat "," (List.map Opcode.to_string filtered))
                        !self
                        (String.concat "," (List.map Opcode.to_string got))
                        mv.Search.Pools.self)
                  (Shape.shapes op))
              Opcode.all)
          pools;
        Printf.printf "%d (pools, opcode, shape) entries checked\n" !checked);
    Alcotest.test_case "every pool operand inhabits its kind" `Quick (fun () ->
        let kinds =
          [ Shape.K_gp Reg.L; Shape.K_gp Reg.Q; Shape.K_xmm; Shape.K_imm8;
            Shape.K_imm32; Shape.K_imm64; Shape.K_mem Shape.M32;
            Shape.K_mem Shape.M64; Shape.K_mem Shape.M128 ]
        in
        List.iter
          (fun (name, (spec : Sandbox.Spec.t)) ->
            let pools = pools_of spec in
            List.iter
              (fun k ->
                Array.iter
                  (fun o ->
                    if not (Shape.kind_matches k o) then
                      Alcotest.failf "%s: %s in the %s pool" name
                        (Operand.to_string ~w:Reg.Q o) (Shape.kind_to_string k))
                  (Search.Pools.operands_of_kind pools k))
              kinds)
          Kernels.Registry.all);
    Alcotest.test_case "random_instr always well-formed" `Quick (fun () ->
        let pools = pools_of add_spec in
        let g = Rng.Xoshiro256.create 3L in
        for _ = 1 to 2_000 do
          let i = Search.Pools.random_instr g pools in
          if not (Instr.is_well_formed i) then
            Alcotest.failf "ill-formed: %s" (Instr.to_string i)
        done);
  ]

let transform_tests =
  [
    Alcotest.test_case "propose/undo restores the program" `Quick (fun () ->
        let pools = pools_of exp_spec in
        let g = Rng.Xoshiro256.create 4L in
        let p =
          Program.with_padding 4 (Program.instrs exp_spec.Sandbox.Spec.program)
        in
        let original = Program.copy p in
        for _ = 1 to 5_000 do
          match Search.Transform.propose g pools p with
          | None -> ()
          | Some (_kind, undo) ->
            Search.Transform.undo p undo;
            if not (Program.equal p original) then Alcotest.fail "undo failed"
        done);
    Alcotest.test_case "proposals preserve well-formedness" `Quick (fun () ->
        let pools = pools_of add_spec in
        let g = Rng.Xoshiro256.create 5L in
        let p =
          Program.with_padding 4 (Program.instrs add_spec.Sandbox.Spec.program)
        in
        for _ = 1 to 5_000 do
          ignore (Search.Transform.propose g pools p);
          Array.iter
            (function
              | Program.Unused -> ()
              | Program.Active i ->
                if not (Instr.is_well_formed i) then
                  Alcotest.failf "ill-formed after move: %s" (Instr.to_string i))
            p.Program.slots
        done);
    Alcotest.test_case "all four moves occur" `Quick (fun () ->
        let pools = pools_of add_spec in
        let g = Rng.Xoshiro256.create 6L in
        let p =
          Program.with_padding 4 (Program.instrs add_spec.Sandbox.Spec.program)
        in
        let seen = Hashtbl.create 4 in
        for _ = 1 to 2_000 do
          match Search.Transform.propose g pools p with
          | None -> ()
          | Some (kind, undo) ->
            Hashtbl.replace seen (Search.Transform.kind_to_string kind) ();
            Search.Transform.undo p undo
        done;
        Alcotest.(check int) "four kinds" 4 (Hashtbl.length seen));
    Alcotest.test_case "the table's active-slot draw is the walk's" `Quick (fun () ->
        (* Random programs of 0 to 23 slots, every fifth all [Unused] and
           every fifth fully active: a table that describes the program
           picks the slot the walk picks, with the same draws; one that
           describes another program of as many slots is ignored. *)
        let pools = pools_of exp_spec in
        let g = Rng.Xoshiro256.create 61L in
        let seen = Array.make 3 0 in
        for trial = 1 to 3_000 do
          let n = Rng.Dist.int g 24 in
          let slot () =
            match trial mod 5 with
            | 0 -> Program.Unused
            | 1 -> Program.Active (Search.Pools.random_instr g pools)
            | _ ->
              if Rng.Dist.bool g then Program.Unused
              else Program.Active (Search.Pools.random_instr g pools)
          in
          let p = { Program.slots = Array.init n (fun _ -> slot ()) } in
          let facts = Facts.create () in
          Facts.refresh facts p;
          let stale = Facts.create () in
          Facts.refresh stale { Program.slots = Array.init n (fun _ -> slot ()) };
          let seed = Rng.Xoshiro256.next g in
          let draw facts =
            let g = Rng.Xoshiro256.create seed in
            let idx = Search.Transform.random_active ?facts g p in
            (idx, Rng.Xoshiro256.next g)
          in
          let walk, after = draw None in
          List.iter
            (fun (what, facts) ->
              let idx, after' = draw (Some facts) in
              if idx <> walk || not (Int64.equal after after') then
                Alcotest.failf "trial %d, %s table: slot %d, walk %d\n%s" trial what idx walk
                  (Program.to_string p))
            [ ("describing", facts); ("stale", stale) ];
          let actives = Program.length p in
          if (walk < 0) <> (actives = 0) then
            Alcotest.failf "trial %d: slot %d with %d active" trial walk actives;
          seen.(if actives = 0 then 0 else if actives = n then 1 else 2) <-
            seen.(if actives = 0 then 0 else if actives = n then 1 else 2) + 1
        done;
        if Array.exists (fun c -> c = 0) seen then
          Alcotest.fail "empty, full and mixed programs were not all drawn");
    Alcotest.test_case "instruction move can empty and refill a slot" `Quick (fun () ->
        let pools = pools_of add_spec in
        let g = Rng.Xoshiro256.create 7L in
        let p =
          Program.with_padding 2 (Program.instrs add_spec.Sandbox.Spec.program)
        in
        let saw_shrink = ref false and saw_grow = ref false in
        for _ = 1 to 3_000 do
          let before = Program.length p in
          (match Search.Transform.propose g pools p with
           | Some (Search.Transform.Instruction_move, _) ->
             let after = Program.length p in
             if after < before then saw_shrink := true;
             if after > before then saw_grow := true
           | _ -> ())
        done;
        Alcotest.(check bool) "deletions proposed" true !saw_shrink;
        Alcotest.(check bool) "insertions proposed" true !saw_grow);
  ]

let mk_ctx ?(eta = 0L) ?(n = 16) spec =
  let tests = Stoke.make_tests ~n ~seed:99L spec in
  Search.Cost.create spec (Search.Cost.default_params ~eta) tests

(* ----- the per-slot facts memo against the reference definitions ----- *)

(* A propose/undo walk through [Transform], the way the search drives the
   memo: the screen's env shares it and refreshes it, then the key and
   the latency are read from it.  Every step must agree with the key of
   a fresh memo (every slot derived from scratch), [Latency.of_program]
   and the dataflow analysis, and a copied or re-parsed program must keep
   the key of the program it came from. *)
let facts_walk spec ~seed ~steps =
  let pools = pools_of spec in
  let g = Rng.Xoshiro256.create seed in
  let facts = Facts.create () in
  let env = Analysis.Screen.env_of_spec ~facts spec in
  let defined =
    Liveness.Locset.add (Liveness.Lgp Reg.Rsp) (Sandbox.Spec.live_in_set spec)
  in
  let verdicts = [| 0; 0 |] in
  let agree step p =
    let screen = Analysis.Screen.has_undef_read env p in
    let where = Printf.sprintf "step %d" step in
    let fresh = Facts.create () in
    Facts.refresh fresh p;
    Alcotest.(check int) (where ^ ": key") (Facts.key fresh) (Facts.key facts);
    Alcotest.(check int)
      (where ^ ": latency") (Latency.of_program p) (Facts.latency facts);
    Alcotest.(check bool)
      (where ^ ": screen")
      (Analysis.Dataflow.undef_reads p ~defined_in:defined <> [])
      screen;
    verdicts.(Bool.to_int screen) <- verdicts.(Bool.to_int screen) + 1
  in
  (* physically new instructions, as a snapshot's resume parses them *)
  let reparse (p : Program.t) =
    {
      Program.slots =
        Array.map
          (function
            | Program.Unused -> Program.Unused
            | Program.Active i ->
              Program.Active (Result.get_ok (Parser.parse_instr (Instr.to_string i))))
          p.Program.slots;
    }
  in
  let cur =
    ref
      (Program.with_padding Search.Optimizer.default_config.Search.Optimizer.padding
         (Program.instrs spec.Sandbox.Spec.program))
  in
  agree 0 !cur;
  for step = 1 to steps do
    if step mod 500 = 0 then begin
      let before = Facts.key facts in
      cur := if step mod 1000 = 0 then reparse !cur else Program.copy !cur;
      agree step !cur;
      Alcotest.(check int)
        (Printf.sprintf "step %d: copy keeps the key" step)
        before (Facts.key facts)
    end;
    match Search.Transform.propose g pools !cur with
    | None -> ()
    | Some (_, undo) ->
      agree step !cur;
      (* keep a third of the moves so the walk drifts from the target *)
      if Rng.Dist.int g 3 > 0 then begin
        Search.Transform.undo !cur undo;
        agree step !cur
      end
  done;
  Alcotest.(check bool) "the walk saw both screen verdicts" true
    (verdicts.(0) > 0 && verdicts.(1) > 0)

let facts_tests =
  [
    Alcotest.test_case "memo agrees with the references on an exp walk" `Quick
      (fun () -> facts_walk exp_spec ~seed:41L ~steps:2_500);
    Alcotest.test_case "memo agrees with the references on a sin walk" `Quick
      (fun () -> facts_walk Kernels.Libimf.sin_spec ~seed:42L ~steps:2_500);
    Alcotest.test_case "cost context and screen share one memo" `Quick
      (fun () ->
        (* the optimizer's wiring: eval refreshes the context's memo, the
           screen's env reads the same one *)
        let ctx = mk_ctx exp_spec in
        let env =
          Analysis.Screen.env_of_spec ~facts:(Search.Cost.facts ctx) exp_spec
        in
        let p = Program.copy exp_spec.Sandbox.Spec.program in
        let c = Search.Cost.eval_full ctx p in
        let fresh = Facts.create () in
        Facts.refresh fresh p;
        Alcotest.(check int) "key after eval" (Facts.key fresh)
          (Facts.key (Search.Cost.facts ctx));
        Alcotest.(check (float 0.)) "perf is the memo's latency"
          (float_of_int (Facts.latency (Search.Cost.facts ctx)))
          c.Search.Cost.perf;
        Alcotest.(check bool) "target is screen-clean" false
          (Analysis.Screen.has_undef_read env p));
  ]

(* ----- dead-write elision against full evaluation ----- *)

(* A hand-driven chain of proposals and undos.  Every one-slot move is
   offered to an eliding context ([Cost.eval_move]); whenever it elides,
   a second context with no cache scores the same program in full, and
   the two costs must agree bit for bit in every field.  Moves are kept
   often enough that the chain drifts far from the target, so dead
   writes, Unused slots and faulting rewrites all occur. *)
let elision_walk spec ~params ~seed ~steps =
  let tests = Stoke.make_tests ~n:16 ~seed:99L spec in
  let eliding = Search.Cost.create ~use_cache:false spec params tests in
  let full = Search.Cost.create ~use_cache:false spec params tests in
  let pools = pools_of spec in
  let g = Rng.Xoshiro256.create seed in
  let cur =
    Program.with_padding 4 (Program.instrs spec.Sandbox.Spec.program)
  in
  let cur_cost = ref (Search.Cost.eval_full full cur) in
  let bits f = Int64.bits_of_float f in
  let checked = ref 0 and ran = ref 0 in
  for step = 1 to steps do
    match Search.Transform.propose g pools cur with
    | None -> ()
    | Some (_, undo) ->
      let c =
        match undo with
        | Search.Transform.Restore_slot (slot, old) ->
          let before = Search.Cost.elided eliding in
          let c =
            match
              Search.Cost.eval_move ~cutoff:Float.infinity ~before:!cur_cost ~slot ~old
                eliding cur
            with
            | Search.Cost.Evaluated c -> c
            | Search.Cost.Pruned _ -> assert false (* no cutoff *)
          in
          let reference = Search.Cost.eval_full full cur in
          if Search.Cost.elided eliding > before then begin
            incr checked;
            let field name a b =
              if not (Int64.equal (bits a) (bits b)) then
                Alcotest.failf "step %d, slot %d: elided %s %h, full %h\n%s"
                  step slot name a b (Program.to_string cur)
            in
            field "eq" c.Search.Cost.eq reference.Search.Cost.eq;
            field "perf" c.Search.Cost.perf reference.Search.Cost.perf;
            field "total" c.Search.Cost.total reference.Search.Cost.total;
            if c.Search.Cost.signals <> reference.Search.Cost.signals then
              Alcotest.failf "step %d: elided signals %d, full %d" step
                c.Search.Cost.signals reference.Search.Cost.signals;
            if not (Int64.equal c.Search.Cost.max_ulp reference.Search.Cost.max_ulp)
            then
              Alcotest.failf "step %d: elided max_ulp %Ld, full %Ld" step
                c.Search.Cost.max_ulp reference.Search.Cost.max_ulp
          end
          else incr ran;
          reference
        | Search.Transform.Restore_swap _ -> Search.Cost.eval_full full cur
      in
      if Rng.Dist.int g 3 = 0 then cur_cost := c
      else Search.Transform.undo cur undo
  done;
  Printf.printf "%d elided moves checked, %d moves run\n" !checked !ran;
  if !checked < 100 || !ran < 100 then
    Alcotest.failf "walk too narrow: %d elided, %d run" !checked !ran

(* ----- the search's slot table against fresh ones ----- *)

(* The optimizer's loop by hand: every proposal updates the cost
   context's table through the move ([Facts.move]/[swap]), the screen
   reads it, an evaluation passes the move (so cache hits and dead-write
   elisions happen), and a rejected or screened-out proposal is undone
   with [Facts.revert].  Now and then an unrelated [Cost.eval_full]
   makes the table describe another program, between a move and its
   undo or before the next move, which must then walk.  After every
   move and every undo the table's key, latency, screen verdict and
   dead-write verdict must be those of a fresh table on [cur], and every
   evaluation, run on the compiled engine through the table's dense
   steps unless answered without running, must equal the interpreter's
   full cost bit for bit. *)
let table_walk spec ~seed ~steps =
  let tests = Stoke.make_tests ~n:16 ~seed:99L spec in
  let params = Search.Cost.default_params ~eta:0L in
  let ctx = Search.Cost.create spec params tests in
  let reference =
    Search.Cost.create ~use_cache:false ~engine:Sandbox.Exec.Interp spec params tests
  in
  let table = Search.Cost.facts ctx in
  let env = Analysis.Screen.env_of_spec ~facts:table spec in
  let fresh_env () = Analysis.Screen.env_of_spec spec in
  let live_out = Sandbox.Spec.live_out_set spec in
  let pools = pools_of spec in
  let g = Rng.Xoshiro256.create seed in
  let cur = Program.with_padding 4 (Program.instrs spec.Sandbox.Spec.program) in
  (* the target, padded as [cur] is: the table can only tell the two
     apart by which program it was last given *)
  let other = Program.with_padding 4 (Program.instrs spec.Sandbox.Spec.program) in
  let cur_cost = ref (Search.Cost.eval_full ctx cur) in
  let rejects = ref 0 and detours = ref 0 and dead = ref 0 in
  (* the dense index against a fresh table's: the active count, the
     active slots in order and their latencies *)
  let same_dense where p =
    let fresh = Facts.create () in
    Facts.refresh fresh p;
    let differs what a b = if a <> b then Alcotest.failf "%s: %s %d, fresh %d" where what a b in
    let n = Facts.active fresh in
    differs "active" (Facts.active table) n;
    for k = 0 to n - 1 do
      differs (Printf.sprintf "order.(%d)" k) (Facts.order table).(k) (Facts.order fresh).(k);
      differs
        (Printf.sprintf "step_latencies.(%d)" k)
        (Facts.step_latencies table).(k) (Facts.step_latencies fresh).(k)
    done;
    fresh
  in
  let agree step what =
    let where = Printf.sprintf "step %d, %s" step what in
    let fresh = same_dense where cur in
    let differs what a b = if a <> b then Alcotest.failf "%s: %s %d, fresh %d" where what a b in
    differs "key" (Facts.key table) (Facts.key fresh);
    differs "latency" (Facts.latency table) (Facts.latency fresh);
    differs "screen"
      (Bool.to_int (Analysis.Screen.has_undef_read ~refreshed:true env cur))
      (Bool.to_int (Analysis.Screen.has_undef_read (fresh_env ()) cur));
    fresh
  in
  let bits = Int64.bits_of_float in
  let detour step =
    incr detours;
    ignore (Search.Cost.eval_full ctx other : Search.Cost.cost);
    ignore (same_dense (Printf.sprintf "step %d, after an unrelated evaluation" step) other
            : Facts.t)
  in
  for step = 1 to steps do
    (* the table describes [cur] unless a detour left it on [other]:
       the move draws its slot from it, or walks *)
    match Search.Transform.propose ~facts:table g pools cur with
    | None -> ()
    | Some (_, undo) ->
      (match undo with
       | Search.Transform.Restore_slot (k, _) -> Facts.move table cur k
       | Search.Transform.Restore_swap (a, b) -> Facts.swap table cur a b);
      let fresh = agree step "after the move" in
      (match undo with
       | Search.Transform.Restore_slot (slot, old) ->
         let verdict = Facts.dead_write table ~slot ~old ~live_out in
         if verdict then incr dead;
         if verdict <> Facts.dead_write fresh ~slot ~old ~live_out then
           Alcotest.failf "step %d: dead write %b, fresh %b" step verdict (not verdict)
       | Search.Transform.Restore_swap _ -> ());
      let take_back () =
        Search.Transform.undo cur undo;
        Facts.revert table cur;
        ignore (agree step "after the undo" : Facts.t)
      in
      if Analysis.Screen.has_undef_read ~refreshed:true env cur then begin
        incr rejects;
        if Rng.Dist.int g 5 = 0 then detour step;
        take_back ()
      end
      else begin
        let verdict =
          match undo with
          | Search.Transform.Restore_slot (slot, old) ->
            Search.Cost.eval_move ~refreshed:true ~cutoff:Float.infinity
              ~before:!cur_cost ~slot ~old ctx cur
          | Search.Transform.Restore_swap _ -> Search.Cost.eval ~refreshed:true ctx cur
        in
        let c =
          match verdict with
          | Search.Cost.Evaluated c -> c
          | Search.Cost.Pruned _ -> assert false (* no cutoff *)
        in
        let r = Search.Cost.eval_full reference cur in
        if
          not
            (Int64.equal (bits c.Search.Cost.eq) (bits r.Search.Cost.eq)
            && Int64.equal (bits c.Search.Cost.total) (bits r.Search.Cost.total)
            && c.Search.Cost.signals = r.Search.Cost.signals
            && Int64.equal c.Search.Cost.max_ulp r.Search.Cost.max_ulp)
        then
          Alcotest.failf "step %d: table eq %h total %h, interpreter eq %h total %h\n%s"
            step c.Search.Cost.eq c.Search.Cost.total r.Search.Cost.eq
            r.Search.Cost.total (Program.to_string cur);
        if Rng.Dist.int g 5 = 0 then detour step;
        if Rng.Dist.int g 3 = 0 then cur_cost := c else take_back ()
      end
  done;
  List.iter
    (fun (what, n) ->
      Printf.printf "%s: %d\n" what n;
      if n = 0 then Alcotest.failf "the walk saw no %s" what)
    [ ("screen rejects", !rejects); ("cache hits", Search.Cost.cache_hits ctx);
      ("elided moves", Search.Cost.elided ctx); ("dead writes", !dead);
      ("unrelated evaluations", !detours) ]

let table_tests =
  [
    Alcotest.test_case "the move-fed table equals a fresh one on an exp walk" `Quick
      (fun () -> table_walk exp_spec ~seed:51L ~steps:2_000);
    Alcotest.test_case "the move-fed table equals a fresh one on a sin walk" `Quick
      (fun () -> table_walk Kernels.Libimf.sin_spec ~seed:52L ~steps:2_000);
    Alcotest.test_case "the move-fed table equals a fresh one on an add walk" `Quick
      (fun () -> table_walk add_spec ~seed:53L ~steps:2_000);
  ]

(* ----- the raw-bit scorer against the value-level oracle ----- *)

(* Every output kind with the bits each test puts there: the target
   leaves xmm0 (f64), xmm1's two low dwords (f32 low and f32 high) and
   rax as the test sets them, and the rewrite copies xmm8, xmm9 and r8
   over them, so each output's expected and actual bits are picked per
   test from edge values: signalling and quiet NaNs with payloads, ±0,
   ±inf, subnormals, the largest finite values.  Either program loads
   through a register the test points inside or outside the arena, so
   each can fault on its own. *)
let f64_edges =
  [ 0L; Int64.min_int; 0x3ff0000000000000L; 0x3ff0000000000001L; 0xbff0000000000000L;
    0x7ff0000000000000L; 0xfff0000000000000L; 0x7ff8000000000000L;
    0x7ff8000000000123L; 0xfff8000000000000L; 0x7ff0000000000001L;
    0x7ff4000000000000L; 0xfff0000000000001L; 1L; 0x000fffffffffffffL;
    0x7fefffffffffffffL; 0x0010000000000000L; 0x8000000000000001L ]

let f32_edges =
  [ 0l; Int32.min_int; 0x3f800000l; 0x3f800001l; 0xbf800000l; 0x7f800000l;
    0xff800000l; 0x7fc00000l; 0x7fc00123l; 0xffc00000l; 0x7f800001l; 0x7fa00000l;
    0xff800001l; 1l; 0x007fffffl; 0x7f7fffffl; 0x00800000l; 0x80000001l ]

let gp_edges = [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 12345L; -12345L ]

let scorer_spec =
  let p s = Parser.parse_program_exn s in
  Sandbox.Spec.make ~name:"scorer"
    ~program:(p "movsd (r10), xmm11")
    ~outputs:
      [ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0; Sandbox.Spec.Out_xmm_f32 Reg.Xmm1;
        Sandbox.Spec.Out_xmm_f32_hi Reg.Xmm1; Sandbox.Spec.Out_gp Reg.Rax ]
    ()

let scorer_rewrite =
  Parser.parse_program_exn
    "movsd (r9), xmm10\nmovsd xmm8, xmm0\nmovsd xmm9, xmm1\nmovq r8, rax"

let scorer_tests g ~faults n =
  let pick l = List.nth l (Rng.Dist.int g (List.length l)) in
  let base =
    Sandbox.Memory.base
      (Sandbox.Machine.create ~mem_size:scorer_spec.Sandbox.Spec.mem_size ())
        .Sandbox.Machine.mem
  in
  let addr () = if faults && Rng.Dist.int g 4 = 0 then 0x10L else base in
  let dwords () =
    Int64.logor
      (Int64.logand (Int64.of_int32 (pick f32_edges)) 0xffff_ffffL)
      (Int64.shift_left (Int64.of_int32 (pick f32_edges)) 32)
  in
  Array.init n (fun _ ->
      (* sometimes the same bits on both sides *)
      let f64 = pick f64_edges and lanes = dwords () and gp = pick gp_edges in
      let same = Rng.Dist.int g 4 = 0 in
      Sandbox.Testcase.empty
      |> Sandbox.Testcase.with_xmm Reg.Xmm0 (f64, 0L)
      |> Sandbox.Testcase.with_xmm Reg.Xmm8 ((if same then f64 else pick f64_edges), 0L)
      |> Sandbox.Testcase.with_xmm Reg.Xmm1 (lanes, 0L)
      |> Sandbox.Testcase.with_xmm Reg.Xmm9 ((if same then lanes else dwords ()), 0L)
      |> Sandbox.Testcase.with_gp Reg.Rax gp
      |> Sandbox.Testcase.with_gp Reg.R8 (if same then gp else pick gp_edges)
      |> Sandbox.Testcase.with_gp Reg.R9 (addr ())
      |> Sandbox.Testcase.with_gp Reg.R10 (addr ()))

let scorer_tests_group =
  [
    Alcotest.test_case "raw-bit scoring equals the value-level oracle" `Quick
      (fun () ->
        let g = Rng.Xoshiro256.create 2718L in
        let bits = Int64.bits_of_float in
        let compared = ref 0 and nan_seen = ref 0 in
        for round = 1 to 60 do
          let tests = scorer_tests g ~faults:(round mod 3 = 0) 8 in
          let run p = Array.map (Oracles.Scorer.outputs scorer_spec p) tests in
          let expected = run scorer_spec.Sandbox.Spec.program in
          let actual = run scorer_rewrite in
          let perf = float_of_int (Latency.of_program scorer_rewrite) in
          List.iter
            (fun eta ->
              List.iter
                (fun metric ->
                  List.iter
                    (fun reduction ->
                      let params =
                        { (Search.Cost.default_params ~eta) with
                          Search.Cost.metric; reduction }
                      in
                      let ctx =
                        Search.Cost.create ~use_cache:false scorer_spec params tests
                      in
                      let c = Search.Cost.eval_full ctx scorer_rewrite in
                      let o = Oracles.Scorer.score params ~expected ~actual ~perf in
                      if Float.is_nan c.Search.Cost.eq then incr nan_seen;
                      incr compared;
                      if
                        not
                          (Int64.equal (bits c.Search.Cost.eq) (bits o.Search.Cost.eq)
                          && Int64.equal (bits c.Search.Cost.perf) (bits o.Search.Cost.perf)
                          && Int64.equal (bits c.Search.Cost.total) (bits o.Search.Cost.total)
                          && c.Search.Cost.signals = o.Search.Cost.signals
                          && Int64.equal c.Search.Cost.max_ulp o.Search.Cost.max_ulp)
                      then
                        Alcotest.failf
                          "round %d, eta %Lu: raw eq %h total %h signals %d max_ulp %Lu; \
                           oracle eq %h total %h signals %d max_ulp %Lu"
                          round eta c.Search.Cost.eq c.Search.Cost.total
                          c.Search.Cost.signals c.Search.Cost.max_ulp o.Search.Cost.eq
                          o.Search.Cost.total o.Search.Cost.signals o.Search.Cost.max_ulp)
                    [ Search.Cost.Max; Search.Cost.Sum ])
                [ Search.Cost.Ulp_metric; Search.Cost.Abs_metric; Search.Cost.Rel_metric ])
            [ 0L; 1L; 1_000_000L; 0x4000_0000_0000_0000L ]
        done;
        Printf.printf "%d costs compared\n" !compared);
  ]

let elision_tests =
  let sum_rel =
    { (Search.Cost.default_params ~eta:0L) with
      Search.Cost.reduction = Search.Cost.Sum;
      metric = Search.Cost.Rel_metric;
      perf_model = Search.Cost.Critical_path }
  in
  [
    Alcotest.test_case "elided exp moves cost what a full evaluation does"
      `Quick (fun () ->
        elision_walk exp_spec ~params:(Search.Cost.default_params ~eta:0L)
          ~seed:61L ~steps:3_000);
    Alcotest.test_case "elided sin moves cost what a full evaluation does"
      `Quick (fun () ->
        elision_walk Kernels.Libimf.sin_spec
          ~params:(Search.Cost.default_params ~eta:(Ulp.of_float 1e14))
          ~seed:62L ~steps:3_000);
    Alcotest.test_case "elided moves under sum, relative error, critical path"
      `Quick (fun () -> elision_walk add_spec ~params:sum_rel ~seed:63L ~steps:3_000);
  ]

let cost_tests =
  [
    Alcotest.test_case "target has zero eq cost" `Quick (fun () ->
        let ctx = mk_ctx exp_spec in
        let c = Search.Cost.eval_full ctx exp_spec.Sandbox.Spec.program in
        Alcotest.(check (float 0.)) "eq" 0. c.Search.Cost.eq;
        Alcotest.(check bool) "correct" true (Search.Cost.correct c));
    Alcotest.test_case "perf term is the latency" `Quick (fun () ->
        let ctx = mk_ctx exp_spec in
        let c = Search.Cost.eval_full ctx exp_spec.Sandbox.Spec.program in
        Alcotest.(check (float 0.))
          "perf"
          (float_of_int (Latency.of_program exp_spec.Sandbox.Spec.program))
          c.Search.Cost.perf);
    Alcotest.test_case "wrong program has positive eq cost" `Quick (fun () ->
        let ctx = mk_ctx exp_spec in
        let wrong = Parser.parse_program_exn "addsd xmm0, xmm0" in
        let c = Search.Cost.eval_full ctx wrong in
        Alcotest.(check bool) "eq > 0" true (c.Search.Cost.eq > 0.));
    Alcotest.test_case "signalling program is heavily penalized" `Quick (fun () ->
        let ctx = mk_ctx exp_spec in
        let bad = Parser.parse_program_exn "movsd (rax), xmm0" in
        let c = Search.Cost.eval_full ctx bad in
        Alcotest.(check int) "all tests signal" 16 c.Search.Cost.signals;
        Alcotest.(check bool) "huge" true (c.Search.Cost.eq >= 1e18));
    Alcotest.test_case "eta forgives small errors" `Quick (fun () ->
        (* drop the c6 = 1/720 Horner step (instructions 15–18: mulsd,
           movabs, movq, addsd): a ~1e-3 relative perturbation, far below
           η = 1e15 but far above η = 0 *)
        let instrs = Program.instrs exp_spec.Sandbox.Spec.program in
        let truncated = List.filteri (fun i _ -> i < 15 || i >= 19) instrs in
        let p = Program.of_instrs truncated in
        let strict = Search.Cost.eval_full (mk_ctx ~eta:0L exp_spec) p in
        let loose =
          Search.Cost.eval_full (mk_ctx ~eta:(Ulp.of_float 1e15) exp_spec) p
        in
        Alcotest.(check bool) "strict rejects" true (strict.Search.Cost.eq > 0.);
        Alcotest.(check (float 0.)) "loose accepts" 0. loose.Search.Cost.eq);
    Alcotest.test_case "max reduction bounds the cost" `Quick (fun () ->
        let ctx = mk_ctx ~eta:0L exp_spec in
        let empty = Program.of_instrs [] in
        let c = Search.Cost.eval_full ctx empty in
        (* even for a wildly wrong program, max-reduction keeps eq finite *)
        Alcotest.(check bool) "finite" true (Float.is_finite c.Search.Cost.eq));
    Alcotest.test_case "sum reduction exceeds max reduction" `Quick (fun () ->
        let tests = Stoke.make_tests ~n:16 ~seed:99L exp_spec in
        let base = Search.Cost.default_params ~eta:0L in
        let ctx_max = Search.Cost.create exp_spec base tests in
        let ctx_sum =
          Search.Cost.create exp_spec
            { base with Search.Cost.reduction = Search.Cost.Sum }
            tests
        in
        let wrong = Parser.parse_program_exn "mulsd xmm0, xmm0" in
        let cm = Search.Cost.eval_full ctx_max wrong in
        let cs = Search.Cost.eval_full ctx_sum wrong in
        Alcotest.(check bool) "sum >= max" true (cs.Search.Cost.eq >= cm.Search.Cost.eq));
    Alcotest.test_case "evaluations are counted" `Quick (fun () ->
        let ctx = mk_ctx exp_spec in
        let n0 = Search.Cost.evaluations ctx in
        ignore (Search.Cost.eval_full ctx exp_spec.Sandbox.Spec.program);
        ignore (Search.Cost.eval_full ctx exp_spec.Sandbox.Spec.program);
        Alcotest.(check int) "two more" (n0 + 2) (Search.Cost.evaluations ctx));
    Alcotest.test_case "rel metric: exact zero output is zero error" `Quick
      (fun () ->
        (* Regression: the target always outputs 0.0, so the relative error
           of an exact rewrite used to be (0−0)/0 = NaN, mapped to +∞ —
           the target itself scored as maximally wrong. *)
        let target = Parser.parse_program_exn "xorpd xmm0, xmm0" in
        let spec =
          Sandbox.Spec.make ~name:"zero" ~program:target
            ~float_inputs:
              [ Sandbox.Spec.Fin_xmm_f64 (Reg.Xmm0, { Sandbox.Spec.lo = -2.; hi = 2. }) ]
            ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
            ()
        in
        let params =
          { (Search.Cost.default_params ~eta:0L) with
            Search.Cost.metric = Search.Cost.Rel_metric }
        in
        let ctx =
          Search.Cost.create spec params (Stoke.make_tests ~n:8 ~seed:77L spec)
        in
        let c = Search.Cost.eval_full ctx target in
        Alcotest.(check (float 0.)) "eq" 0. c.Search.Cost.eq;
        Alcotest.(check bool) "correct" true (Search.Cost.correct c);
        (* ...while a genuinely wrong output against a zero expectation is
           still penalized (via the ULP fallback, not divide-by-zero). *)
        let wrong =
          Parser.parse_program_exn
            "movabs $0x3ff0000000000000, rax\nmovq rax, xmm0"
        in
        let cw = Search.Cost.eval_full ctx wrong in
        Alcotest.(check bool) "wrong penalized" true (cw.Search.Cost.eq > 0.));
    Alcotest.test_case "faulting target: matching faults cost nothing" `Quick
      (fun () ->
        (* Regression: a target that signals on some test used to make
           Cost.create raise, leaving the recorded fault behaviour dead.
           rax is 0 on every testcase and the sandbox maps memory well
           above address 0, so this load faults deterministically. *)
        let target = Parser.parse_program_exn "movsd (rax), xmm0" in
        let spec =
          Sandbox.Spec.make ~name:"faulty" ~program:target
            ~float_inputs:
              [ Sandbox.Spec.Fin_xmm_f64 (Reg.Xmm0, { Sandbox.Spec.lo = -2.; hi = 2. }) ]
            ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
            ()
        in
        let params = Search.Cost.default_params ~eta:0L in
        let ctx =
          Search.Cost.create spec params (Stoke.make_tests ~n:8 ~seed:78L spec)
        in
        (* a rewrite that faults exactly where the target faults matches it *)
        let c = Search.Cost.eval_full ctx target in
        Alcotest.(check (float 0.)) "eq" 0. c.Search.Cost.eq;
        Alcotest.(check int) "all tests signal" 8 c.Search.Cost.signals;
        Alcotest.(check bool) "correct" true (Search.Cost.correct c);
        (* ...and one that runs to completion there diverges and pays ws *)
        let finishes = Parser.parse_program_exn "addsd xmm0, xmm0" in
        let cf = Search.Cost.eval_full ctx finishes in
        Alcotest.(check bool)
          "divergent completion pays ws" true
          (cf.Search.Cost.eq >= params.Search.Cost.ws));
    Alcotest.test_case "cost cache hit skips the sandbox" `Quick (fun () ->
        let ctx = mk_ctx exp_spec in
        let p = exp_spec.Sandbox.Spec.program in
        let c1 = Search.Cost.eval_full ctx p in
        let tests1 = Search.Cost.tests_executed ctx in
        let hits1 = Search.Cost.cache_hits ctx in
        let c2 = Search.Cost.eval_full ctx p in
        Alcotest.(check int) "one hit" (hits1 + 1) (Search.Cost.cache_hits ctx);
        Alcotest.(check int)
          "no new test runs" tests1
          (Search.Cost.tests_executed ctx);
        Alcotest.(check int64)
          "identical total"
          (Int64.bits_of_float c1.Search.Cost.total)
          (Int64.bits_of_float c2.Search.Cost.total));
    Alcotest.test_case "a crashing engine re-runs on the fallback" `Quick
      (fun () ->
        (* Regression: a native worker crash latched a fault on every
           lane, so a correct proposal was scored — and cached — as
           signalling everywhere, and the validator charged it top_eta.
           Through the seam the crashed call re-runs on the fallback, so
           every answer must be the interpreter's, bit for bit. *)
        let module Crashing = struct
          let engine = Sandbox.Exec.Native
          let available () = true
          let translates = true

          type lanes = Facts.t

          let lanes _ _ = Facts.create ()
          let table l = l
          let prepare _ _ = true
          let run _ ~order:_ ~diverges:_ _ = None
          let respawns _ = 0

          type caller = unit

          let caller _ = ()

          type call = unit

          let prepare_call () _ _ = Some ()
          let call () = None
          let finished () = None
        end in
        let crashing = (module Crashing : Sandbox.Engine.S) in
        let tests = Stoke.make_tests ~n:16 ~seed:99L exp_spec in
        let params = Search.Cost.default_params ~eta:0L in
        let create ?use_cache engine =
          Search.Cost.create ?use_cache ~instance:engine exp_spec params tests
        in
        let interp = Sandbox.Engine.of_engine Sandbox.Exec.Interp in
        let reference = create interp and ctx = create crashing in
        let truncated =
          Program.of_instrs
            (List.filteri
               (fun i _ -> i < 15 || i >= 19)
               (Program.instrs exp_spec.Sandbox.Spec.program))
        in
        let programs =
          [ exp_spec.Sandbox.Spec.program; truncated;
            Parser.parse_program_exn "movsd (rax), xmm0";
            Parser.parse_program_exn "addsd xmm0, xmm0" ]
        in
        let same_cost (a : Search.Cost.cost) (b : Search.Cost.cost) =
          a = b
          && Int64.equal
               (Int64.bits_of_float a.Search.Cost.total)
               (Int64.bits_of_float b.Search.Cost.total)
        in
        List.iter
          (fun p ->
            let expected = Search.Cost.eval_full reference p in
            (* the second answer comes from the cost cache *)
            for _ = 1 to 2 do
              Alcotest.(check bool)
                "eval_full is the interpreter's" true
                (same_cost expected (Search.Cost.eval_full ctx p))
            done)
          programs;
        Alcotest.(check int)
          "second evaluations were cache hits" (List.length programs)
          (Search.Cost.cache_hits ctx);
        let c = Search.Cost.engine_counters ctx in
        Alcotest.(check int) "no run completed on the crashing engine" 0
          c.Sandbox.Engine.runs;
        Alcotest.(check int)
          "every run re-ran on the fallback"
          (Search.Cost.tests_executed ctx)
          c.Sandbox.Engine.fallbacks;
        (* cutoff verdicts agree too, just below and at the true total *)
        let reference = create ~use_cache:false interp
        and ctx = create ~use_cache:false crashing in
        List.iter
          (fun p ->
            let total = (Search.Cost.eval_full reference p).Search.Cost.total in
            List.iter
              (fun cutoff ->
                match
                  Search.Cost.eval ~cutoff reference p,
                  Search.Cost.eval ~cutoff ctx p
                with
                | Search.Cost.Pruned _, Search.Cost.Pruned _ -> ()
                | Search.Cost.Evaluated a, Search.Cost.Evaluated b ->
                  Alcotest.(check bool)
                    "eval ~cutoff is the interpreter's" true (same_cost a b)
                | _ -> Alcotest.fail "verdicts differ")
              [ total *. 0.5; total ])
          programs;
        let g = Rng.Xoshiro256.create 5L in
        let errfn instance =
          Validate.Errfn.create ~instance exp_spec ~rewrite:truncated
        in
        let e_ref = errfn interp and e = errfn crashing in
        for _ = 1 to 64 do
          let xs = Sandbox.Spec.random_floats g exp_spec in
          Alcotest.(check bool)
            "eval_both is the interpreter's" true
            (Validate.Errfn.eval_both e_ref xs = Validate.Errfn.eval_both e xs)
        done);
  ]

(* Whether a proposal changing the cost by [delta] is accepted, the way
   the optimizer decides it: draw the bound first, then compare. *)
let accepts s g ~delta =
  match Search.Strategy.accept_bound s g ~iter:1 with
  | None -> true
  | Some bound -> delta <= bound

let strategy_tests =
  [
    Alcotest.test_case "every strategy accepts improvements" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 8L in
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (Search.Strategy.to_string s)
              true
              (accepts s g ~delta:(-5.)))
          [ Search.Strategy.Mcmc { beta = 1.0 }; Search.Strategy.Hill;
            Search.Strategy.default_anneal; Search.Strategy.Random_walk ]);
    Alcotest.test_case "hill rejects any worsening" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 9L in
        Alcotest.(check bool)
          "reject" false
          (accepts Search.Strategy.Hill g ~delta:0.001));
    Alcotest.test_case "random accepts worsening" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 10L in
        Alcotest.(check bool)
          "accept" true
          (accepts Search.Strategy.Random_walk g ~delta:1e9));
    Alcotest.test_case "mcmc acceptance rate tracks exp(-beta delta)" `Quick (fun () ->
        let g = Rng.Xoshiro256.create 11L in
        let beta = 0.5 and delta = 3.0 in
        let s = Search.Strategy.Mcmc { beta } in
        let n = 50_000 in
        let accepted = ref 0 in
        for _ = 1 to n do
          if accepts s g ~delta then incr accepted
        done;
        let rate = float_of_int !accepted /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "rate %.3f near e^-1.5" rate)
          true
          (Float.abs (rate -. Float.exp (-.beta *. delta)) < 0.02));
    Alcotest.test_case "accept_bound: hill bounds at zero, random at infinity"
      `Quick (fun () ->
        let g = Rng.Xoshiro256.create 12L in
        (match Search.Strategy.accept_bound Search.Strategy.Hill g ~iter:1 with
         | Some b -> Alcotest.(check (float 0.)) "hill bound" 0. b
         | None -> Alcotest.fail "hill must produce a bound");
        (match
           Search.Strategy.accept_bound Search.Strategy.Random_walk g ~iter:1
         with
         | None -> ()
         | Some _ -> Alcotest.fail "random walk accepts everything"));
    Alcotest.test_case "accept_bound reproduces the mcmc acceptance rate"
      `Quick (fun () ->
        (* accepting iff delta <= bound must give the same e^{-β·delta}
           statistics as the lazy accept path *)
        let g = Rng.Xoshiro256.create 13L in
        let s = Search.Strategy.Mcmc { beta = 1.0 } in
        let n = 50_000 in
        let accepted = ref 0 in
        for _ = 1 to n do
          match Search.Strategy.accept_bound s g ~iter:1 with
          | None -> incr accepted
          | Some b -> if 1.0 <= b then incr accepted
        done;
        let rate = float_of_int !accepted /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "rate %.3f near e^-1" rate)
          true
          (Float.abs (rate -. Float.exp (-1.)) < 0.02));
    Alcotest.test_case "of_string/to_string" `Quick (fun () ->
        List.iter
          (fun name ->
            match Search.Strategy.of_string name with
            | Some s -> Alcotest.(check string) name name (Search.Strategy.to_string s)
            | None -> Alcotest.failf "%s not parsed" name)
          [ "mcmc"; "hill"; "anneal"; "rand" ]);
  ]

let optimizer_tests =
  [
    Alcotest.test_case "search removes dead code" `Quick (fun () ->
        (* target with an obviously removable instruction pair *)
        let target =
          Parser.parse_program_exn
            "movabs $0x3ff0000000000000, rax\nmovq rax, xmm5\nmulsd xmm0, xmm0"
        in
        let spec =
          Sandbox.Spec.make ~name:"square" ~program:target
            ~float_inputs:
              [ Sandbox.Spec.Fin_xmm_f64 (Reg.Xmm0, { Sandbox.Spec.lo = -2.; hi = 2. }) ]
            ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
            ()
        in
        let ctx =
          Search.Cost.create spec
            (Search.Cost.default_params ~eta:0L)
            (Stoke.make_tests ~n:8 ~seed:1L spec)
        in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 20_000 }
        in
        let r = Search.Optimizer.run ctx config in
        match r.Search.Optimizer.best_correct with
        | None -> Alcotest.fail "no correct rewrite"
        | Some p ->
          Alcotest.(check int) "one instruction" 1 (Program.length p));
    Alcotest.test_case "trace is monotone in best cost" `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let ctx =
          Search.Cost.create spec
            (Search.Cost.default_params ~eta:0L)
            (Stoke.make_tests ~n:8 ~seed:2L spec)
        in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 10_000 }
        in
        let r = Search.Optimizer.run ctx config in
        let rec check_desc = function
          | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              "non-increasing" true
              (b.Search.Optimizer.best_total <= a.Search.Optimizer.best_total +. 1e-9);
            check_desc rest
          | _ -> ()
        in
        check_desc r.Search.Optimizer.trace);
    Alcotest.test_case "best_correct is eta-correct and no slower" `Quick (fun () ->
        let spec = Kernels.Aek_kernels.scale_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:3L spec in
        let ctx = Search.Cost.create spec (Search.Cost.default_params ~eta:0L) tests in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 30_000 }
        in
        let r = Search.Optimizer.run ctx config in
        match r.Search.Optimizer.best_correct with
        | None -> Alcotest.fail "no correct rewrite"
        | Some p ->
          let ctx2 = Search.Cost.create spec (Search.Cost.default_params ~eta:0L) tests in
          let c = Search.Cost.eval_full ctx2 p in
          Alcotest.(check bool) "correct" true (Search.Cost.correct c);
          Alcotest.(check bool)
            "no slower than target" true
            (Latency.of_program p <= Latency.of_program spec.Sandbox.Spec.program));
    Alcotest.test_case "pruning does not change the winner" `Quick (fun () ->
        (* The tentpole invariant: for a fixed seed the search returns a
           bit-identical winning rewrite with pruning on or off, while
           executing strictly fewer test cases. *)
        let spec = Kernels.Aek_kernels.add_spec in
        let run prune =
          let ctx =
            Search.Cost.create ~use_cache:prune spec
              (Search.Cost.default_params ~eta:0L)
              (Stoke.make_tests ~n:8 ~seed:41L spec)
          in
          let config =
            { Search.Optimizer.default_config with
              Search.Optimizer.proposals = 20_000;
              prune }
          in
          Search.Optimizer.run ctx config
        in
        let pruned = run true and full = run false in
        Alcotest.(check bool)
          "same best_correct" true
          (match
             pruned.Search.Optimizer.best_correct,
             full.Search.Optimizer.best_correct
           with
           | None, None -> true
           | Some p, Some q -> Program.equal p q
           | _ -> false);
        Alcotest.(check bool)
          "same best_overall" true
          (Program.equal pruned.Search.Optimizer.best_overall
             full.Search.Optimizer.best_overall);
        Alcotest.(check int64)
          "bit-identical best total"
          (Int64.bits_of_float
             full.Search.Optimizer.best_overall_cost.Search.Cost.total)
          (Int64.bits_of_float
             pruned.Search.Optimizer.best_overall_cost.Search.Cost.total);
        Alcotest.(check int)
          "same accept trajectory" full.Search.Optimizer.accepted
          pruned.Search.Optimizer.accepted;
        Alcotest.(check bool)
          (Printf.sprintf "fewer test runs (%d < %d)"
             pruned.Search.Optimizer.tests_executed
             full.Search.Optimizer.tests_executed)
          true
          (pruned.Search.Optimizer.tests_executed
          < full.Search.Optimizer.tests_executed);
        Alcotest.(check bool)
          "pruning actually fired" true
          (pruned.Search.Optimizer.pruned_evals > 0);
        Alcotest.(check int)
          "no pruning when disabled" 0 full.Search.Optimizer.pruned_evals);
    Alcotest.test_case "sum-reduction pruning is active and sound" `Quick
      (fun () ->
        (* Regression: the cutoff used to run with pruning silently
           disabled under [Sum] reduction.  The fix pins the evaluation
           order under [Sum] (no move-to-front), which makes the running
           sum of non-negative terms a monotone lower bound — so pruning
           must now actually fire AND leave the winner bit-identical. *)
        let spec = Kernels.Aek_kernels.add_spec in
        let params =
          { (Search.Cost.default_params ~eta:0L) with
            Search.Cost.reduction = Search.Cost.Sum }
        in
        let run prune =
          let ctx =
            Search.Cost.create ~use_cache:prune spec params
              (Stoke.make_tests ~n:8 ~seed:41L spec)
          in
          let config =
            { Search.Optimizer.default_config with
              Search.Optimizer.proposals = 10_000;
              prune }
          in
          Search.Optimizer.run ctx config
        in
        let pruned = run true and full = run false in
        Alcotest.(check bool)
          "same best_correct" true
          (match
             pruned.Search.Optimizer.best_correct,
             full.Search.Optimizer.best_correct
           with
           | None, None -> true
           | Some p, Some q -> Program.equal p q
           | _ -> false);
        Alcotest.(check bool)
          "same best_overall" true
          (Program.equal pruned.Search.Optimizer.best_overall
             full.Search.Optimizer.best_overall);
        Alcotest.(check int64)
          "bit-identical best total"
          (Int64.bits_of_float
             full.Search.Optimizer.best_overall_cost.Search.Cost.total)
          (Int64.bits_of_float
             pruned.Search.Optimizer.best_overall_cost.Search.Cost.total);
        Alcotest.(check int)
          "same accept trajectory" full.Search.Optimizer.accepted
          pruned.Search.Optimizer.accepted;
        Alcotest.(check bool)
          "pruning actually fired under Sum" true
          (pruned.Search.Optimizer.pruned_evals > 0);
        Alcotest.(check bool)
          (Printf.sprintf "fewer test runs (%d < %d)"
             pruned.Search.Optimizer.tests_executed
             full.Search.Optimizer.tests_executed)
          true
          (pruned.Search.Optimizer.tests_executed
          < full.Search.Optimizer.tests_executed));
    Alcotest.test_case "engine does not change the winner" `Quick (fun () ->
        (* The compiled engine's invariant: for a fixed seed the search
           returns a bit-identical winner under either executor, with
           pruning on or off — four runs, one answer. *)
        let spec = Kernels.Aek_kernels.add_spec in
        let run engine prune =
          let ctx =
            Search.Cost.create ~use_cache:prune ~engine spec
              (Search.Cost.default_params ~eta:0L)
              (Stoke.make_tests ~n:8 ~seed:41L spec)
          in
          let config =
            { Search.Optimizer.default_config with
              Search.Optimizer.proposals = 10_000;
              prune;
              engine }
          in
          Search.Optimizer.run ctx config
        in
        let reference = run Sandbox.Exec.Interp false in
        List.iter
          (fun (label, (r : Search.Optimizer.result)) ->
            Alcotest.(check bool)
              (label ^ ": same best_correct")
              true
              (match
                 r.Search.Optimizer.best_correct,
                 reference.Search.Optimizer.best_correct
               with
               | None, None -> true
               | Some p, Some q -> Program.equal p q
               | _ -> false);
            Alcotest.(check bool)
              (label ^ ": same best_overall")
              true
              (Program.equal r.Search.Optimizer.best_overall
                 reference.Search.Optimizer.best_overall);
            Alcotest.(check int64)
              (label ^ ": bit-identical best total")
              (Int64.bits_of_float
                 reference.Search.Optimizer.best_overall_cost.Search.Cost.total)
              (Int64.bits_of_float
                 r.Search.Optimizer.best_overall_cost.Search.Cost.total);
            Alcotest.(check int)
              (label ^ ": same accept trajectory")
              reference.Search.Optimizer.accepted r.Search.Optimizer.accepted)
          (List.concat_map
             (fun engine ->
               let name = Sandbox.Exec.engine_to_string engine in
               [ (name, run engine false); (name ^ "+prune", run engine true) ])
             (List.filter Sandbox.Engine.available Sandbox.Engine.all));
        let counters (r : Search.Optimizer.result) =
          r.Search.Optimizer.engine_counters
        in
        let every_run_counted label (r : Search.Optimizer.result) =
          let c = counters r in
          Alcotest.(check int)
            (label ^ ": runs + fallback runs = tests executed")
            r.Search.Optimizer.tests_executed
            (c.Sandbox.Engine.runs + c.Sandbox.Engine.fallbacks)
        in
        let compiled = run Sandbox.Exec.Compiled false in
        every_run_counted "compiled" compiled;
        Alcotest.(check bool)
          "compiled engine actually compiled" true
          ((counters compiled).Sandbox.Engine.prepares > 0
          && (counters compiled).Sandbox.Engine.runs
             >= (counters compiled).Sandbox.Engine.prepares
          && (counters compiled).Sandbox.Engine.fallbacks = 0);
        every_run_counted "interp" reference;
        Alcotest.(check int)
          "interp engine never prepares" 0
          (counters reference).Sandbox.Engine.prepares;
        let batched = run Sandbox.Exec.Batched true in
        every_run_counted "batched" batched;
        Alcotest.(check bool)
          "batched engine runs whole batches of 8 lanes" true
          ((counters batched).Sandbox.Engine.runs > 0
          && (counters batched).Sandbox.Engine.fallbacks = 0
          && batched.Search.Optimizer.tests_executed mod 8 = 0);
        if Sandbox.Native.available () then begin
          let native = run Sandbox.Exec.Native true in
          every_run_counted "native" native;
          Alcotest.(check bool)
            "native engine runs lanes natively" true
            ((counters native).Sandbox.Engine.runs > 0
            && (counters native).Sandbox.Engine.prepares > 0
            && (counters native).Sandbox.Engine.respawns = 0)
        end);
    Alcotest.test_case "same seed gives the same result" `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let run () =
          let ctx =
            Search.Cost.create spec
              (Search.Cost.default_params ~eta:0L)
              (Stoke.make_tests ~n:8 ~seed:4L spec)
          in
          let config =
            { Search.Optimizer.default_config with Search.Optimizer.proposals = 5_000 }
          in
          Search.Optimizer.run ctx config
        in
        let a = run () and b = run () in
        Alcotest.(check bool)
          "same best program" true
          (match a.Search.Optimizer.best_correct, b.Search.Optimizer.best_correct with
           | None, None -> true
           | Some p, Some q -> Program.equal p q
           | _ -> false));
  ]

let perf_model_tests =
  [
    Alcotest.test_case "critical-path perf never exceeds latency sum" `Quick
      (fun () ->
        let tests = Stoke.make_tests ~n:8 ~seed:31L exp_spec in
        let base = Search.Cost.default_params ~eta:0L in
        let ctx_sum = Search.Cost.create exp_spec base tests in
        let ctx_cp =
          Search.Cost.create exp_spec
            { base with Search.Cost.perf_model = Search.Cost.Critical_path }
            tests
        in
        let p = exp_spec.Sandbox.Spec.program in
        let cs = Search.Cost.eval_full ctx_sum p in
        let cc = Search.Cost.eval_full ctx_cp p in
        Alcotest.(check bool) "cp <= sum" true (cc.Search.Cost.perf <= cs.Search.Cost.perf);
        Alcotest.(check bool) "cp positive" true (cc.Search.Cost.perf > 0.));
    Alcotest.test_case "synthesis mode finds a tiny kernel from nothing" `Slow
      (fun () ->
        (* target: y = x + x.  Synthesis (k = 0) from an empty rewrite. *)
        let target = Parser.parse_program_exn "addsd xmm0, xmm0" in
        let spec =
          Sandbox.Spec.make ~name:"double" ~program:target
            ~float_inputs:
              [ Sandbox.Spec.Fin_xmm_f64 (Reg.Xmm0, { Sandbox.Spec.lo = -8.; hi = 8. }) ]
            ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
            ()
        in
        let params =
          { (Search.Cost.default_params ~eta:0L) with Search.Cost.k = 0. }
        in
        let ctx = Search.Cost.create spec params (Stoke.make_tests ~n:8 ~seed:32L spec) in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 60_000 }
        in
        let r = Search.Optimizer.synthesize ctx config ~slots:4 in
        match r.Search.Optimizer.best_correct with
        | None -> Alcotest.fail "synthesis failed"
        | Some p ->
          Alcotest.(check bool) "small" true (Program.length p <= 4));
  ]

let parallel_tests =
  [
    Alcotest.test_case "parallel chains return a valid result" `Slow (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:33L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 10_000 }
        in
        let r = Search.Parallel.run ~domains:3 ~spec ~params ~tests ~config () in
        Alcotest.(check int) "proposals summed" 30_000 r.Search.Optimizer.proposals_made;
        match r.Search.Optimizer.best_correct with
        | None -> Alcotest.fail "no rewrite"
        | Some p ->
          let ctx = Search.Cost.create spec params tests in
          Alcotest.(check bool)
            "correct" true
            (Search.Cost.correct (Search.Cost.eval_full ctx p)));
    Alcotest.test_case "parallel is at least as good as one chain" `Slow (fun () ->
        let spec = Kernels.Aek_kernels.scale_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:34L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 8_000 }
        in
        let single =
          Search.Optimizer.run (Search.Cost.create spec params tests) config
        in
        let multi = Search.Parallel.run ~domains:4 ~spec ~params ~tests ~config () in
        let perf r =
          match r.Search.Optimizer.best_correct_cost with
          | Some (c : Search.Cost.cost) -> c.Search.Cost.perf
          | None -> Float.infinity
        in
        Alcotest.(check bool) "multi <= single" true (perf multi <= perf single));
    Alcotest.test_case "per-domain sinks see every chain; stats sum" `Slow
      (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:35L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let proposals = 6_000 and domains = 3 in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals }
        in
        let sinks = Array.init domains (fun _ -> Obs.Sink.memory ()) in
        let r =
          Search.Parallel.run ~domains
            ~obs:(fun ~chain -> sinks.(chain))
            ~spec ~params ~tests ~config ()
        in
        (* every chain streamed into its own sink *)
        Array.iteri
          (fun i sink ->
            let evs = Obs.Sink.drain sink in
            let named n =
              List.filter (fun (e : Obs.Sink.event) -> e.Obs.Sink.name = n) evs
            in
            Alcotest.(check int)
              (Printf.sprintf "chain %d search_end" i)
              1
              (List.length (named "search_end"));
            Alcotest.(check bool)
              (Printf.sprintf "chain %d checkpoints" i)
              true
              (List.length (named "checkpoint") > 0))
          sinks;
        (* cross-chain sums are coherent (the aggregation builds fresh
           arrays rather than mutating the winning chain's counters) *)
        Alcotest.(check int) "proposals summed" (domains * proposals)
          r.Search.Optimizer.proposals_made;
        Alcotest.(check int) "accepted = sum of per-kind accepts"
          r.Search.Optimizer.accepted
          (Array.fold_left ( + ) 0
             r.Search.Optimizer.moves.Search.Optimizer.accepted_by_kind);
        Alcotest.(check bool) "proposed bounded by proposals" true
          (Array.fold_left ( + ) 0 r.Search.Optimizer.moves.Search.Optimizer.proposed
          <= r.Search.Optimizer.proposals_made));
  ]

(* ---- the parallel-search control plane: early-stop, deadlines, crash
   isolation, checkpoint/resume ---- *)

let reason =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf (Search.Control.stop_reason_to_string r))
    (fun a b -> a = b)

let check_same_program msg a b =
  Alcotest.(check bool) msg true (Program.equal a b)

let orchestrator_tests =
  [
    Alcotest.test_case "idle control plane leaves the winner bit-identical"
      `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:36L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 6_000 }
        in
        let plain =
          Search.Optimizer.run (Search.Cost.create spec params tests) config
        in
        (* totals are never negative, so this policy can never fire — but
           it forces the control plane (scoreboard, polls, publications)
           onto the run *)
        let policed =
          Search.Optimizer.run
            (Search.Cost.create spec params tests)
            { config with
              Search.Optimizer.stop_when = Search.Control.Cost_below (-1.) }
        in
        check_same_program "same best_overall"
          plain.Search.Optimizer.best_overall
          policed.Search.Optimizer.best_overall;
        Alcotest.(check int) "same accepted" plain.Search.Optimizer.accepted
          policed.Search.Optimizer.accepted;
        Alcotest.(check int) "same proposals"
          plain.Search.Optimizer.proposals_made
          policed.Search.Optimizer.proposals_made;
        Alcotest.check reason "ran to exhaustion" Search.Control.Exhausted
          policed.Search.Optimizer.stop_reason);
    Alcotest.test_case "deadline interrupts with a valid partial result"
      `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:36L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config =
          { Search.Optimizer.default_config with
            Search.Optimizer.proposals = 50_000_000;
            deadline_s = Some 0.1;
          }
        in
        let ctx = Search.Cost.create spec params tests in
        let r = Search.Optimizer.run ctx config in
        Alcotest.check reason "deadline" Search.Control.Deadline_hit
          r.Search.Optimizer.stop_reason;
        Alcotest.(check bool) "made progress" true
          (r.Search.Optimizer.proposals_made > 0);
        Alcotest.(check bool) "stopped early" true
          (r.Search.Optimizer.proposals_made < 50_000_000);
        (* the partial result is still a valid evaluation *)
        Alcotest.(check bool) "best_overall cost is finite" true
          (Float.is_finite
             r.Search.Optimizer.best_overall_cost.Search.Cost.total));
    Alcotest.test_case "first-correct stops every chain early" `Slow (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:37L spec in
        let params = Search.Cost.default_params ~eta:(Ulp.of_float 1e6) in
        let proposals = 200_000 and domains = 3 in
        let config =
          { Search.Optimizer.default_config with
            Search.Optimizer.proposals;
            stop_when = Search.Control.First_correct;
          }
        in
        let r = Search.Parallel.run ~domains ~spec ~params ~tests ~config () in
        Alcotest.check reason "policy fired" Search.Control.Policy_satisfied
          r.Search.Optimizer.stop_reason;
        Alcotest.(check bool) "found a correct improvement" true
          (Option.is_some r.Search.Optimizer.best_correct);
        Alcotest.(check bool) "saved most of the budget" true
          (r.Search.Optimizer.proposals_made < domains * proposals));
    Alcotest.test_case "a crashing chain is isolated, survivors win" `Quick
      (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:38L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let proposals = 4_000 and domains = 3 in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals }
        in
        let sinks = Array.init domains (fun _ -> Obs.Sink.memory ()) in
        let r =
          Search.Parallel.run ~domains
            ~obs:(fun ~chain -> sinks.(chain))
            ~on_chain_start:(fun i -> if i = 1 then failwith "injected crash")
            ~spec ~params ~tests ~config ()
        in
        Alcotest.(check int) "one failed chain" 1
          r.Search.Optimizer.failed_chains;
        Alcotest.(check int) "survivors ran their full budget"
          (2 * proposals) r.Search.Optimizer.proposals_made;
        Alcotest.(check bool) "survivors still found a rewrite" true
          (Option.is_some r.Search.Optimizer.best_correct);
        let crash_events =
          List.filter
            (fun (e : Obs.Sink.event) -> e.Obs.Sink.name = "chain_crash")
            (Obs.Sink.drain sinks.(1))
        in
        Alcotest.(check int) "chain 1 logged its crash" 1
          (List.length crash_events));
    Alcotest.test_case "all chains crashing raises" `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:4 ~seed:39L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 100 }
        in
        Alcotest.(check bool) "raises Failure" true
          (try
             ignore
               (Search.Parallel.run ~domains:2
                  ~on_chain_start:(fun _ -> failwith "boom")
                  ~spec ~params ~tests ~config ());
             false
           with Failure _ -> true));
    Alcotest.test_case "snapshot round-trips and rejects a changed config"
      `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:40L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 2_000 }
        in
        let path = Filename.temp_file "stoke_snap" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let _ =
              Search.Parallel.run ~domains:2 ~checkpoint:(path, 3600.) ~spec
                ~params ~tests ~config ()
            in
            (* the post-join snapshot marks both chains complete *)
            let s =
              match Search.Snapshot.read ~path with
              | Ok s -> s
              | Error e -> Alcotest.fail ("snapshot read: " ^ e)
            in
            Alcotest.(check int) "domains" 2 s.Search.Snapshot.domains;
            Alcotest.(check string) "fingerprint matches a recomputation"
              (Search.Snapshot.fingerprint ~spec ~params ~config ~tests
                 ~domains:2)
              s.Search.Snapshot.fingerprint;
            Array.iter
              (fun pub ->
                match pub with
                | None -> Alcotest.fail "chain never published"
                | Some (p : Search.Control.chain_pub) ->
                  Alcotest.(check bool) "completed" true p.Search.Control.completed)
              s.Search.Snapshot.chains;
            (* JSON round-trip: parse(print(s)) reproduces every program
               slot-exactly *)
            (match Search.Snapshot.of_json (Search.Snapshot.to_json s) with
             | Error e -> Alcotest.fail ("round-trip: " ^ e)
             | Ok s' ->
               Alcotest.(check string) "fingerprint survives"
                 s.Search.Snapshot.fingerprint s'.Search.Snapshot.fingerprint;
               Array.iteri
                 (fun i pub ->
                   match pub, s'.Search.Snapshot.chains.(i) with
                   | Some (a : Search.Control.chain_pub),
                     Some (b : Search.Control.chain_pub) ->
                     check_same_program "cur survives" a.Search.Control.cur
                       b.Search.Control.cur;
                     check_same_program "best_overall survives"
                       a.Search.Control.best_overall
                       b.Search.Control.best_overall;
                     Alcotest.(check (array int64)) "rng survives"
                       a.Search.Control.rng b.Search.Control.rng
                   | _ -> Alcotest.fail "chain lost in round-trip")
                 s.Search.Snapshot.chains);
            (* resuming under a different seed must be rejected loudly *)
            Alcotest.(check bool) "changed config rejected" true
              (try
                 ignore
                   (Search.Parallel.run ~domains:2 ~resume:s ~spec ~params
                      ~tests
                      ~config:{ config with Search.Optimizer.seed = 99L }
                      ());
                 false
               with Invalid_argument _ -> true)));
    Alcotest.test_case "fingerprint is sensitive to trajectory inputs" `Quick
      (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:4 ~seed:41L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config = Search.Optimizer.default_config in
        let fp c p t d =
          Search.Snapshot.fingerprint ~spec ~params:p ~config:c ~tests:t
            ~domains:d
        in
        let base = fp config params tests 2 in
        Alcotest.(check string) "deterministic" base (fp config params tests 2);
        Alcotest.(check bool) "seed matters" true
          (base <> fp { config with Search.Optimizer.seed = 2L } params tests 2);
        Alcotest.(check bool) "eta matters" true
          (base <> fp config (Search.Cost.default_params ~eta:1L) tests 2);
        Alcotest.(check bool) "tests matter" true
          (base <> fp config params (Stoke.make_tests ~n:4 ~seed:42L spec) 2);
        Alcotest.(check bool) "domains matter" true
          (base <> fp config params tests 3);
        (* stopping policy is deliberately outside the fingerprint: it is
           legitimate to change on resume *)
        Alcotest.(check string) "deadline does not matter" base
          (fp { config with Search.Optimizer.deadline_s = Some 1. } params
             tests 2);
        Alcotest.(check string) "stop_when does not matter" base
          (fp
             { config with
               Search.Optimizer.stop_when = Search.Control.First_correct }
             params tests 2));
    Alcotest.test_case "concurrent writers to one snapshot path never tear"
      `Quick (fun () ->
        (* Regression: the staging file used to be the fixed
           [path ^ ".tmp"], so two concurrent checkpoints could open the
           same tmp, interleave bytes, and rename a half-written (or
           foreign, already-renamed) image into place.  Two domains now
           hammer one path; every read-back must parse as one writer's
           complete snapshot. *)
        let path = Filename.temp_file "stoke_snap_race" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            (* a long stop_reason makes each write span several syscalls,
               widening the race window even on one core *)
            let mk tag =
              {
                Search.Snapshot.version = Search.Snapshot.current_version;
                fingerprint = tag;
                domains = 1;
                stop_reason = Some (String.make 65_536 tag.[0]);
                elapsed_s = 1.0;
                chains = [| None |];
              }
            in
            let iterations = 150 in
            let failure = Atomic.make "" in
            let go = Atomic.make false in
            let writer tag () =
              let snap = mk tag in
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              for _ = 1 to iterations do
                (try Search.Snapshot.write ~path snap
                 with Sys_error e ->
                   Atomic.set failure ("write raced: " ^ e));
                match Search.Snapshot.read ~path with
                | Ok s ->
                  if
                    s.Search.Snapshot.fingerprint <> "a"
                    && s.Search.Snapshot.fingerprint <> "b"
                  then Atomic.set failure "foreign snapshot content"
                | Error e -> Atomic.set failure ("torn snapshot: " ^ e)
              done
            in
            let d1 = Domain.spawn (writer "a") in
            let d2 = Domain.spawn (writer "b") in
            Atomic.set go true;
            Domain.join d1;
            Domain.join d2;
            Alcotest.(check string) "no torn or raced snapshot" ""
              (Atomic.get failure)));
    Alcotest.test_case "resume reproduces the uninterrupted winner" `Slow
      (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:43L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let proposals = 100_000 and domains = 2 in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals }
        in
        let full =
          Search.Parallel.run ~domains ~spec ~params ~tests ~config ()
        in
        let path = Filename.temp_file "stoke_resume" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let interrupted =
              Search.Parallel.run ~domains ~checkpoint:(path, 3600.) ~spec
                ~params ~tests
                ~config:
                  { config with Search.Optimizer.deadline_s = Some 0.1 }
                ()
            in
            Alcotest.check reason "was interrupted"
              Search.Control.Deadline_hit
              interrupted.Search.Optimizer.stop_reason;
            let s =
              match Search.Snapshot.read ~path with
              | Ok s -> s
              | Error e -> Alcotest.fail ("snapshot read: " ^ e)
            in
            (* resume WITHOUT the deadline: the fingerprint ignores
               stopping policy, so this continues the same trajectory to
               exhaustion *)
            let resumed =
              Search.Parallel.run ~domains ~resume:s ~spec ~params ~tests
                ~config ()
            in
            Alcotest.check reason "resumed run exhausts"
              Search.Control.Exhausted resumed.Search.Optimizer.stop_reason;
            Alcotest.(check int) "full combined budget"
              (domains * proposals) resumed.Search.Optimizer.proposals_made;
            check_same_program "same best_overall"
              full.Search.Optimizer.best_overall
              resumed.Search.Optimizer.best_overall;
            Alcotest.(check int64) "same best_overall total (bitwise)"
              (Int64.bits_of_float
                 full.Search.Optimizer.best_overall_cost.Search.Cost.total)
              (Int64.bits_of_float
                 resumed.Search.Optimizer.best_overall_cost.Search.Cost.total);
            (match
               full.Search.Optimizer.best_correct,
               resumed.Search.Optimizer.best_correct
             with
             | Some a, Some b -> check_same_program "same best_correct" a b
             | None, None -> ()
             | _ -> Alcotest.fail "best_correct presence differs")));
    Alcotest.test_case "result counters are anchored per run" `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let tests = Stoke.make_tests ~n:8 ~seed:44L spec in
        let params = Search.Cost.default_params ~eta:0L in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 2_000 }
        in
        let ctx = Search.Cost.create spec params tests in
        let r1 = Search.Optimizer.run ctx config in
        let r2 = Search.Optimizer.run ctx config in
        (* reusing the context must not leak run 1's counters into run 2's
           result: each result counts its own work, and together they
           account for the context's raw totals *)
        Alcotest.(check bool) "second run did work" true
          (r2.Search.Optimizer.evaluations > 0);
        Alcotest.(check int) "evaluations partition the context total"
          (Search.Cost.evaluations ctx)
          (r1.Search.Optimizer.evaluations + r2.Search.Optimizer.evaluations);
        Alcotest.(check int) "tests_executed partition the context total"
          (Search.Cost.tests_executed ctx)
          (r1.Search.Optimizer.tests_executed
          + r2.Search.Optimizer.tests_executed));
  ]

let telemetry_tests =
  [
    Alcotest.test_case "move statistics add up" `Quick (fun () ->
        let spec = Kernels.Aek_kernels.add_spec in
        let ctx =
          Search.Cost.create spec
            (Search.Cost.default_params ~eta:0L)
            (Stoke.make_tests ~n:8 ~seed:51L spec)
        in
        let config =
          { Search.Optimizer.default_config with Search.Optimizer.proposals = 5_000 }
        in
        let r = Search.Optimizer.run ctx config in
        let total_proposed =
          Array.fold_left ( + ) 0 r.Search.Optimizer.moves.Search.Optimizer.proposed
        in
        let total_accepted =
          Array.fold_left ( + ) 0
            r.Search.Optimizer.moves.Search.Optimizer.accepted_by_kind
        in
        (* some draws are inapplicable (return None), so proposed <= made *)
        Alcotest.(check bool)
          "proposed bounded" true
          (total_proposed <= r.Search.Optimizer.proposals_made);
        Alcotest.(check int) "accepted consistent" r.Search.Optimizer.accepted
          total_accepted;
        Array.iteri
          (fun i p ->
            if r.Search.Optimizer.moves.Search.Optimizer.accepted_by_kind.(i) > p
            then Alcotest.fail "accepted more than proposed")
          r.Search.Optimizer.moves.Search.Optimizer.proposed);
  ]

(* Frontier driver: cold-mode bit-identity with the historical per-point
   sweep, demotion on validation failure, and checkpoint/resume. *)
let frontier_cfg ?(warm = true) ?(max_demotions = 2) ~proposals ~seed () =
  {
    Search.Frontier.default_config with
    Search.Frontier.search =
      { Search.Optimizer.default_config with
        Search.Optimizer.proposals; seed };
    warm;
    max_demotions;
  }

let frontier_tests =
  let spec = add_spec in
  let target = spec.Sandbox.Spec.program in
  let target_latency = Latency.of_program target in
  let etas = [ 0L; Ulp.of_float 1e6 ] in
  [
    Alcotest.test_case "cold walk reproduces the per-point sweep" `Quick
      (fun () ->
        let proposals = 3_000 and seed = 11L in
        let tests = Stoke.make_tests ~n:16 ~seed spec in
        let cfg = frontier_cfg ~warm:false ~proposals ~seed () in
        (* the pre-frontier sweep, inlined: one cold search per η with the
           target fallback *)
        let legacy =
          List.map
            (fun eta ->
              let ctx =
                Search.Cost.create spec
                  (Search.Cost.default_params ~eta)
                  tests
              in
              let r = Search.Optimizer.run ctx cfg.Search.Frontier.search in
              match r.Search.Optimizer.best_correct with
              | Some p when Latency.of_program p <= target_latency -> p
              | _ -> target)
            etas
        in
        let fr = Search.Frontier.run ~tests ~etas cfg spec in
        List.iter2
          (fun expected (p : Search.Frontier.point) ->
            Alcotest.(check bool)
              "bit-identical winner" true
              (Program.equal expected p.Search.Frontier.rewrite);
            Alcotest.(check bool) "marked cold" false p.Search.Frontier.warm)
          legacy fr.Search.Frontier.points);
    Alcotest.test_case "only a warm walk reports warm budget and demotions"
      `Quick (fun () ->
        let tests = Stoke.make_tests ~n:8 ~seed:3L spec in
        let start_fields warm =
          let sink = Obs.Sink.memory () in
          let cfg = frontier_cfg ~warm ~proposals:300 ~seed:3L () in
          ignore (Search.Frontier.run ~obs:sink ~tests ~etas cfg spec : Search.Frontier.result);
          match
            List.filter
              (fun (e : Obs.Sink.event) -> e.Obs.Sink.name = "frontier_start")
              (Obs.Sink.drain sink)
          with
          | [ e ] -> List.map fst e.Obs.Sink.fields
          | l -> Alcotest.failf "%d frontier_start events" (List.length l)
        in
        let cold = start_fields false and warm = start_fields true in
        List.iter
          (fun f ->
            Alcotest.(check bool) ("cold walk omits " ^ f) false (List.mem f cold);
            Alcotest.(check bool) ("warm walk has " ^ f) true (List.mem f warm))
          [ "warm_budget"; "max_demotions" ]);
    Alcotest.test_case "refuting validator demotes and falls back" `Quick
      (fun () ->
        let proposals = 4_000 and seed = 5L in
        let tests = Stoke.make_tests ~n:16 ~seed spec in
        let cfg = frontier_cfg ~max_demotions:1 ~proposals ~seed () in
        let refute_all ~eta:_ _rewrite =
          {
            Search.Frontier.observed_err = Int64.max_int;
            refuted = true;
            mixed = false;
            val_iterations = 1;
            counterexample = Some (Array.make (Sandbox.Spec.arity spec) 1.5);
          }
        in
        let sink = Obs.Sink.memory () in
        let fr =
          Search.Frontier.run ~obs:sink ~validator:refute_all ~tests ~etas
            cfg spec
        in
        (* the searches do find non-target rewrites, so the validator must
           have been consulted and must have demoted them *)
        Alcotest.(check bool) "demotions happened" true
          (fr.Search.Frontier.demotions >= 1);
        Alcotest.(check bool) "counterexamples fed back" true
          (fr.Search.Frontier.tests_added >= 1);
        List.iter
          (fun (p : Search.Frontier.point) ->
            Alcotest.(check bool)
              "fell back to the target" true
              (Program.equal p.Search.Frontier.rewrite target);
            Alcotest.(check (option int64))
              "target is exact" (Some 0L) p.Search.Frontier.validated_err)
          fr.Search.Frontier.points;
        let demote_events =
          List.length
            (List.filter
               (fun (e : Obs.Sink.event) -> e.Obs.Sink.name = "frontier_demote")
               (Obs.Sink.drain sink))
        in
        Alcotest.(check int)
          "one frontier_demote event per demotion"
          fr.Search.Frontier.demotions demote_events);
    Alcotest.test_case "counterexamples evict refuted earlier points" `Quick
      (fun () ->
        (* y = 2x, padded to latency 5 so a lone mulsd (also latency 5)
           survives pick's no-slower rule *)
        let bp_target =
          Parser.parse_program_exn
            "addsd xmm0, xmm0\nmovsd xmm0, xmm1\nmovsd xmm0, xmm2"
        in
        let bp_spec =
          Sandbox.Spec.make ~name:"double_padded" ~program:bp_target
            ~float_inputs:
              [ Sandbox.Spec.Fin_xmm_f64
                  (Reg.Xmm0, { Sandbox.Spec.lo = -8.; hi = 8. }) ]
            ~outputs:[ Sandbox.Spec.Out_xmm_f64 Reg.Xmm0 ]
            ()
        in
        (* the only base test is x = 2, where x·x = 2x exactly: the x·x
           point injected below really was "validated" on everything the
           tight-η search ever saw *)
        let tests = [| Sandbox.Spec.testcase_of_floats bp_spec [| 2.0 |] |] in
        let square = Parser.parse_program_exn "mulsd xmm0, xmm0" in
        let cfg = frontier_cfg ~proposals:4 ~seed:7L () in
        let settled =
          {
            Search.Frontier.eta = 0L;
            rewrite = square;
            loc = 1;
            latency = Latency.of_program square;
            speedup = 1.0;
            validated_err = Some 0L;
            warm = true;
            proposals_used = 4;
            demotions = 0;
          }
        in
        let snap =
          {
            Search.Frontier.version = Search.Frontier.snapshot_version;
            fingerprint = Search.Frontier.fingerprint cfg ~spec:bp_spec ~tests;
            next = 1;
            carry_rng =
              Some (Rng.Xoshiro256.state (Rng.Xoshiro256.create 99L));
            snap_total_proposals = 4;
            snap_demotions = 0;
            snap_points = [ settled ];
            extra_tests = [];
          }
        in
        (* at the loose η the walk seeds from x·x, so the candidate is a
           non-target rewrite; refute it with x = 3 (9 vs 6), an input
           that also refutes the settled x·x point at its η of 0 *)
        let refute ~eta:_ rewrite =
          let refuted = not (Program.equal rewrite bp_target) in
          {
            Search.Frontier.observed_err =
              (if refuted then Int64.max_int else 0L);
            refuted;
            mixed = false;
            val_iterations = 1;
            counterexample = (if refuted then Some [| 3.0 |] else None);
          }
        in
        let sink = Obs.Sink.memory () in
        let fr =
          Search.Frontier.run ~obs:sink ~validator:refute ~resume:snap
            ~tests ~etas cfg bp_spec
        in
        (* the settled x·x point must be gone, not merely "hardened for
           later points": a known input disproves its bound *)
        (match fr.Search.Frontier.points with
         | [ tight; loose ] ->
           Alcotest.(check bool)
             "refuted tight point evicted back to the target" true
             (Program.equal tight.Search.Frontier.rewrite bp_target);
           Alcotest.(check (option int64))
             "evicted point is exact" (Some 0L)
             tight.Search.Frontier.validated_err;
           Alcotest.(check bool)
             "eviction counts as a demotion" true
             (tight.Search.Frontier.demotions >= 1);
           Alcotest.(check bool)
             "loose point never keeps a refuted rewrite" true
             (Program.equal loose.Search.Frontier.rewrite bp_target)
         | ps ->
           Alcotest.failf "expected 2 points, got %d" (List.length ps));
        Alcotest.(check bool) "counterexample fed back" true
          (fr.Search.Frontier.tests_added >= 1);
        let backprops =
          List.filter
            (fun (e : Obs.Sink.event) ->
              e.Obs.Sink.name = "frontier_backprop")
            (Obs.Sink.drain sink)
        in
        Alcotest.(check bool) "frontier_backprop event emitted" true
          (List.length backprops >= 1));
    Alcotest.test_case "sound prover promotes without validation budget" `Quick
      (fun () ->
        let proposals = 3_000 and seed = 11L in
        let tests = Stoke.make_tests ~n:16 ~seed spec in
        let cfg = frontier_cfg ~proposals ~seed () in
        (* a prover that certifies everything with bound 0: every point
           must be settled by promotion, and the refuting validator must
           never be consulted *)
        let prove_all ~eta:_ _rewrite =
          Some
            { Search.Frontier.sound_ulps = 0.; boxes_explored = 1; depth = 0 }
        in
        let refute_all ~eta:_ _rewrite =
          Alcotest.fail "validator consulted despite a sound proof"
        in
        let sink = Obs.Sink.memory () in
        let fr =
          Search.Frontier.run ~obs:sink ~validator:refute_all
            ~prover:prove_all ~tests ~etas cfg spec
        in
        Alcotest.(check int)
          "every point promoted" (List.length fr.Search.Frontier.points)
          fr.Search.Frontier.promotions;
        List.iter
          (fun (p : Search.Frontier.point) ->
            Alcotest.(check (option int64))
              "certified bound stands in for the validated error" (Some 0L)
              p.Search.Frontier.validated_err)
          fr.Search.Frontier.points;
        let promo_events =
          List.length
            (List.filter
               (fun (e : Obs.Sink.event) ->
                 e.Obs.Sink.name = "sound_promotion")
               (Obs.Sink.drain sink))
        in
        Alcotest.(check int)
          "one sound_promotion event per promotion"
          fr.Search.Frontier.promotions promo_events;
        (* and with the prover absent the same run still validates *)
        let cold = Search.Frontier.run ~tests ~etas cfg spec in
        List.iter2
          (fun (a : Search.Frontier.point) (b : Search.Frontier.point) ->
            Alcotest.(check bool)
              "prover does not change the winner" true
              (Program.equal a.Search.Frontier.rewrite
                 b.Search.Frontier.rewrite))
          fr.Search.Frontier.points cold.Search.Frontier.points);
    Alcotest.test_case "snapshot round-trips through JSON" `Quick (fun () ->
        let proposals = 3_000 and seed = 11L in
        let tests = Stoke.make_tests ~n:16 ~seed spec in
        let cfg = frontier_cfg ~proposals ~seed () in
        let path = Filename.temp_file "frontier" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            ignore (Search.Frontier.run ~checkpoint:path ~tests ~etas cfg spec);
            match Search.Frontier.read_snapshot ~spec ~path with
            | Error e -> Alcotest.failf "read_snapshot: %s" e
            | Ok s ->
              Alcotest.(check int)
                "walked the whole grid" (List.length etas)
                s.Search.Frontier.next;
              Alcotest.(check string)
                "fingerprint" (Search.Frontier.fingerprint cfg ~spec ~tests)
                s.Search.Frontier.fingerprint;
              (* to_json ∘ of_json is the identity on the serialized form *)
              (match
                 Search.Frontier.snapshot_of_json ~spec
                   (Search.Frontier.snapshot_to_json s)
               with
               | Error e -> Alcotest.failf "round-trip: %s" e
               | Ok s' ->
                 Alcotest.(check bool)
                   "round-trip identical" true
                   (Obs.Json.equal
                      (Search.Frontier.snapshot_to_json s)
                      (Search.Frontier.snapshot_to_json s')))));
    Alcotest.test_case "resume reproduces the uninterrupted walk" `Quick
      (fun () ->
        let proposals = 3_000 and seed = 11L in
        let tests = Stoke.make_tests ~n:16 ~seed spec in
        let cfg = frontier_cfg ~proposals ~seed () in
        let grid = [ 0L; Ulp.of_float 1e4; Ulp.of_float 1e10 ] in
        let full = Search.Frontier.run ~tests ~etas:grid cfg spec in
        (* interrupt after the first η, then resume into the full grid:
           the fingerprint skips the grid, so extending it is legal *)
        let path = Filename.temp_file "frontier" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            ignore
              (Search.Frontier.run ~checkpoint:path ~tests
                 ~etas:[ List.hd grid ] cfg spec);
            let snap =
              match Search.Frontier.read_snapshot ~spec ~path with
              | Ok s -> s
              | Error e -> Alcotest.failf "read_snapshot: %s" e
            in
            let resumed =
              Search.Frontier.run ~resume:snap ~tests ~etas:grid cfg spec
            in
            Alcotest.(check int)
              "same total proposals" full.Search.Frontier.total_proposals
              resumed.Search.Frontier.total_proposals;
            List.iter2
              (fun (a : Search.Frontier.point) (b : Search.Frontier.point) ->
                Alcotest.(check bool)
                  "bit-identical point" true
                  (Program.equal a.Search.Frontier.rewrite
                     b.Search.Frontier.rewrite);
                Alcotest.(check int)
                  "same proposals_used" a.Search.Frontier.proposals_used
                  b.Search.Frontier.proposals_used)
              full.Search.Frontier.points resumed.Search.Frontier.points);
        (* a different search config must be rejected *)
        let other = frontier_cfg ~proposals:(proposals + 1) ~seed () in
        let fp = Search.Frontier.fingerprint cfg ~spec ~tests in
        let stale =
          {
            Search.Frontier.version = Search.Frontier.snapshot_version;
            fingerprint = fp;
            next = 0;
            carry_rng = None;
            snap_total_proposals = 0;
            snap_demotions = 0;
            snap_points = [];
            extra_tests = [];
          }
        in
        Alcotest.check_raises "fingerprint mismatch"
          (Invalid_argument "Frontier.run: snapshot fingerprint mismatch")
          (fun () ->
            ignore
              (Search.Frontier.run ~resume:stale ~tests ~etas:grid other spec)));
    Alcotest.test_case "nonsensical walk parameters rejected before any search"
      `Quick (fun () ->
        (* warm_frac 2 once spent 190% of the cold budget *)
        let tests = Stoke.make_tests ~n:4 ~seed:1L spec in
        let cfg = frontier_cfg ~proposals:1_000 ~seed:1L () in
        let events = ref 0 in
        let obs = Obs.Sink.callback (fun _ -> incr events) in
        let reject what cfg =
          match Search.Frontier.run ~obs ~tests ~etas cfg spec with
          | _ -> Alcotest.failf "accepted %s" what
          | exception Invalid_argument _ -> ()
        in
        reject "warm_frac 2" { cfg with Search.Frontier.warm_frac = 2. };
        reject "warm_frac 0" { cfg with Search.Frontier.warm_frac = 0. };
        reject "warm_frac nan" { cfg with Search.Frontier.warm_frac = Float.nan };
        reject "negative max_demotions"
          { cfg with Search.Frontier.max_demotions = -1 };
        (match Search.Frontier.run ~obs ~tests ~etas:[] cfg spec with
         | _ -> Alcotest.fail "accepted an empty grid"
         | exception Invalid_argument _ -> ());
        Alcotest.(check int) "no event, no search" 0 !events;
        (* the bounds themselves are walkable *)
        let r =
          Search.Frontier.run ~tests ~etas
            { cfg with Search.Frontier.warm_frac = 1.; max_demotions = 0 }
            spec
        in
        Alcotest.(check bool)
          "warm walk within the cold budget" true
          (r.Search.Frontier.total_proposals <= r.Search.Frontier.cold_budget));
  ]

(* Pareto-set invariants, driven by random (latency, error) clouds: the
   retained set never holds a dominated (or duplicate) pair, and every
   inserted point is either retained or covered by a retained member. *)
let prop_pareto_invariants =
  let spec = add_spec in
  let target = spec.Sandbox.Spec.program in
  let mk_pt latency err =
    {
      Search.Frontier.eta = err;
      rewrite = target;
      loc = 1;
      latency;
      speedup = 1.0;
      validated_err = Some err;
      warm = false;
      proposals_used = 0;
      demotions = 0;
    }
  in
  QCheck.Test.make ~name:"pareto_insert invariants" ~count:500 QCheck.int64
    (fun seed ->
      let g = Rng.Xoshiro256.create seed in
      let n = 1 + Rng.Dist.int g 20 in
      let pts =
        List.init n (fun _ ->
            mk_pt (Rng.Dist.int g 8) (Int64.of_int (Rng.Dist.int g 8)))
      in
      let set =
        List.fold_left
          (fun s p -> fst (Search.Frontier.pareto_insert s p))
          [] pts
      in
      let no_dominated =
        List.for_all
          (fun p ->
            not
              (List.exists
                 (fun q -> p != q && Search.Frontier.dominates q p)
                 set))
          set
      in
      let covered p =
        List.exists
          (fun q ->
            q.Search.Frontier.latency <= p.Search.Frontier.latency
            && Ulp.compare
                 (Search.Frontier.err_bound q)
                 (Search.Frontier.err_bound p)
               <= 0)
          set
      in
      no_dominated && List.for_all covered pts)

(* Liveness/DCE soundness against the interpreter: a random well-formed
   program and its DCE'd version must produce identical live-out values on
   any test case where both run to completion. *)
let prop_dce_preserves_outputs =
  let spec = Kernels.Aek_kernels.add_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let live_out = Sandbox.Spec.live_out_set spec in
  QCheck.Test.make ~name:"DCE preserves live-out values" ~count:300 QCheck.int64
    (fun seed ->
      let g = Rng.Xoshiro256.create seed in
      let n = 3 + Rng.Dist.int g 8 in
      let p =
        Program.of_instrs (List.init n (fun _ -> Search.Pools.random_instr g pools))
      in
      let q = Liveness.dce p ~live_out in
      let tc = Sandbox.Spec.random_testcase g spec in
      let run prog =
        let m, r =
          Sandbox.Exec.run_testcase ~mem_size:spec.Sandbox.Spec.mem_size prog tc
        in
        match r.Sandbox.Exec.outcome with
        | Sandbox.Exec.Finished -> Some (Sandbox.Spec.read_outputs spec m)
        | Sandbox.Exec.Faulted _ -> None
      in
      match run p, run q with
      | None, _ -> true (* original faults: nothing to compare *)
      | Some _, None -> false (* DCE must never introduce a fault *)
      | Some a, Some b ->
        Array.for_all2
          (fun x y -> Int64.equal (Sandbox.Spec.value_ulp x y) 0L)
          a b)

(* Cutoff soundness: for any program and any cutoff, [eval ?cutoff] returns
   [Pruned] exactly when the full total exceeds the cutoff, and an
   [Evaluated] verdict carries the bit-identical full cost.  This is the
   property that makes pruned and unpruned searches interchangeable. *)
let prop_cutoff_equivalence =
  let spec = Kernels.Aek_kernels.add_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  let tests = Stoke.make_tests ~n:8 ~seed:42L spec in
  let params = Search.Cost.default_params ~eta:0L in
  (* caches off so both contexts actually evaluate; adaptive reordering in
     [ctx_cut] must not change any verdict *)
  let ctx_full = Search.Cost.create ~use_cache:false spec params tests in
  let ctx_cut = Search.Cost.create ~use_cache:false spec params tests in
  QCheck.Test.make ~name:"cutoff prunes exactly the would-be rejections"
    ~count:300 QCheck.int64 (fun seed ->
      let g = Rng.Xoshiro256.create seed in
      let n = 1 + Rng.Dist.int g 6 in
      let p =
        Program.of_instrs
          (List.init n (fun _ -> Search.Pools.random_instr g pools))
      in
      let full = Search.Cost.eval_full ctx_full p in
      let m = 0.25 +. (1.75 *. Rng.Dist.float g 1.0) in
      let cutoff = full.Search.Cost.total *. m in
      match Search.Cost.eval ~cutoff ctx_cut p with
      | Search.Cost.Evaluated c ->
        Int64.equal
          (Int64.bits_of_float c.Search.Cost.total)
          (Int64.bits_of_float full.Search.Cost.total)
        && full.Search.Cost.total <= cutoff
      | Search.Cost.Pruned pr ->
        full.Search.Cost.total > cutoff
        && pr.Search.Cost.tests_run >= 1
        && pr.Search.Cost.tests_run <= Array.length tests
        && pr.Search.Cost.eq_partial <= full.Search.Cost.eq)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dce_preserves_outputs; prop_cutoff_equivalence;
      prop_pareto_invariants ]

let () =
  Alcotest.run "search"
    [
      ("pools", pools_tests);
      ("transform", transform_tests);
      ("facts", facts_tests);
      ("cost", cost_tests);
      ("elision", elision_tests);
      ("scorer", scorer_tests_group);
      ("table", table_tests);
      ("strategy", strategy_tests);
      ("optimizer", optimizer_tests);
      ("perf-model-synthesis", perf_model_tests);
      ("parallel", parallel_tests);
      ("orchestrator", orchestrator_tests);
      ("frontier", frontier_tests);
      ("telemetry", telemetry_tests);
      ("properties", props);
    ]

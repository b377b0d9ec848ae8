(* lib/analysis and its test-only oracles (test/oracles): the
   taint-differential oracle over the Liveness tables, the forward
   dataflow diagnostics, the proposal screen, and the three
   table fixes the oracle uncovered (inc/dec preserve CF; a masked-to-zero
   shift count writes no flags; a read-modify-write memory destination
   reads the memory blob). *)

let locset = Liveness.Locset.of_list

let i_ op operands = Instr.make op operands

let mem ?index ?(disp = 0) base : Operand.t =
  Operand.Mem { Operand.base = Some base; index; disp }

(* ----- the oracle itself ----- *)

let oracle_tests =
  [
    Alcotest.test_case "def/use/kill tables pass the taint-differential oracle"
      `Slow (fun () ->
        let vs = Oracles.Oracle.run ~states:3 () in
        List.iter
          (fun v -> Printf.printf "violation: %s\n" (Oracles.Oracle.violation_to_string v))
          vs;
        Alcotest.(check int) "no violations" 0 (List.length vs));
    Alcotest.test_case "oracle covers every opcode x shape the pools generate"
      `Quick (fun () ->
        let spec = Kernels.S3d.exp_spec in
        let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
        let instance_shapes =
          List.filter_map
            (fun (i : Instr.t) ->
              Option.map (fun s -> (i.Instr.op, s)) (Shape.shape_of i.Instr.op i.Instr.operands))
            (Oracles.Oracle.instances ())
        in
        Array.iter
          (fun op ->
            List.iter
              (fun shape ->
                (* only shapes the pools can populate end up in proposals *)
                let instantiable =
                  Array.for_all
                    (fun k -> Array.length (Search.Pools.operands_of_kind pools k) > 0)
                    shape
                in
                if instantiable then
                  Alcotest.(check bool)
                    (Printf.sprintf "%s covered" (Opcode.to_string op))
                    true
                    (List.exists
                       (fun (o, s) -> Opcode.equal o op && Shape.equal_shape s shape)
                       instance_shapes))
              (Shape.shapes op))
          (Search.Pools.all_opcodes pools));
  ]

(* ----- pinned regressions for the table fixes ----- *)

let rax : Operand.t = Operand.Gp Reg.Rax
let rbx : Operand.t = Operand.Gp Reg.Rbx
let rcx : Operand.t = Operand.Gp Reg.Rcx
let rdx : Operand.t = Operand.Gp Reg.Rdx

let table_fix_tests =
  [
    Alcotest.test_case "inc/dec do not kill the flags (CF survives)" `Quick
      (fun () ->
        let inc = i_ (Opcode.Inc Reg.Q) [ rax ] in
        let dec = i_ (Opcode.Dec Reg.Q) [ rax ] in
        List.iter
          (fun i ->
            Alcotest.(check bool) "defs has flags" true
              (Liveness.Locset.mem Liveness.Lflags (Liveness.defs i));
            Alcotest.(check bool) "kills lacks flags" false
              (Liveness.Locset.mem Liveness.Lflags (Liveness.kills i)))
          [ inc; dec ]);
    Alcotest.test_case "shift kills flags only for a nonzero masked count"
      `Quick (fun () ->
        let kills_flags op imm =
          Liveness.Locset.mem Liveness.Lflags
            (Liveness.kills (i_ op [ Operand.imm imm; rax ]))
        in
        Alcotest.(check bool) "shlq $1 kills" true (kills_flags (Opcode.Shl Reg.Q) 1);
        Alcotest.(check bool) "shlq $0 does not" false (kills_flags (Opcode.Shl Reg.Q) 0);
        Alcotest.(check bool) "shll $32 masks to 0" false (kills_flags (Opcode.Shl Reg.L) 32);
        Alcotest.(check bool) "shlq $32 kills" true (kills_flags (Opcode.Shl Reg.Q) 32);
        Alcotest.(check bool) "sarq $0 does not" false (kills_flags (Opcode.Sar Reg.Q) 0);
        Alcotest.(check bool) "shrl $1 kills" true (kills_flags (Opcode.Shr Reg.L) 1));
    Alcotest.test_case "RMW memory destination reads the memory blob" `Quick
      (fun () ->
        let rmw = i_ (Opcode.Add Reg.Q) [ rax; mem Reg.Rsi ~disp:16 ] in
        let store = i_ (Opcode.Mov Reg.Q) [ rax; mem Reg.Rsi ~disp:16 ] in
        Alcotest.(check bool) "addq into mem uses Lmem" true
          (Liveness.Locset.mem Liveness.Lmem (Liveness.uses rmw));
        Alcotest.(check bool) "movq into mem does not" false
          (Liveness.Locset.mem Liveness.Lmem (Liveness.uses store)));
    Alcotest.test_case "DCE keeps a cmp whose CF crosses an inc" `Quick
      (fun () ->
        (* cmp sets CF; inc rewrites every flag EXCEPT CF; cmovb reads CF.
           Before the kills fix the backward pass marked the flags dead at
           the inc and deleted the cmp. *)
        let p =
          Program.of_instrs
            [
              i_ (Opcode.Cmp Reg.Q) [ rcx; rax ];
              i_ (Opcode.Inc Reg.Q) [ rdx ];
              i_ (Opcode.Cmov (Opcode.B, Reg.Q)) [ rcx; rbx ];
            ]
        in
        let live_out = locset [ Liveness.Lgp Reg.Rbx; Liveness.Lgp Reg.Rdx ] in
        let q = Liveness.dce p ~live_out in
        Alcotest.(check int) "all three slots survive" 3 (Program.length q));
    Alcotest.test_case "DCE keeps a cmp whose flags cross a zero-count shift"
      `Quick (fun () ->
        let p =
          Program.of_instrs
            [
              i_ (Opcode.Cmp Reg.Q) [ rcx; rax ];
              i_ (Opcode.Shl Reg.Q) [ Operand.imm 0; rdx ];
              i_ (Opcode.Cmov (Opcode.B, Reg.Q)) [ rcx; rbx ];
            ]
        in
        let live_out = locset [ Liveness.Lgp Reg.Rbx; Liveness.Lgp Reg.Rdx ] in
        let q = Liveness.dce p ~live_out in
        Alcotest.(check int) "all three slots survive" 3 (Program.length q));
    Alcotest.test_case "strict_uses drops merge-only destination reads" `Quick
      (fun () ->
        let cvt = i_ (Opcode.Cvtsi2sd Reg.Q) [ rax; Operand.Xmm Reg.Xmm1 ] in
        Alcotest.(check bool) "uses reads xmm1 (upper merge)" true
          (Liveness.Locset.mem (Liveness.Lxmm Reg.Xmm1) (Liveness.uses cvt));
        Alcotest.(check bool) "strict_uses does not" false
          (Liveness.Locset.mem (Liveness.Lxmm Reg.Xmm1) (Liveness.strict_uses cvt));
        let addsd = i_ Opcode.Addsd [ Operand.Xmm Reg.Xmm0; Operand.Xmm Reg.Xmm1 ] in
        Alcotest.(check bool) "addsd dst read is a real read" true
          (Liveness.Locset.mem (Liveness.Lxmm Reg.Xmm1) (Liveness.strict_uses addsd)));
  ]

(* ----- dataflow diagnostics ----- *)

let has_finding diags slot pred =
  List.exists
    (fun (d : Analysis.Dataflow.diag) -> d.Analysis.Dataflow.slot = slot && pred d.Analysis.Dataflow.finding)
    diags

let dataflow_tests =
  [
    Alcotest.test_case "undef read: using a register nothing wrote" `Quick
      (fun () ->
        let p =
          Program.of_instrs
            [
              i_ (Opcode.Mov Reg.Q) [ rax; rbx ];
              i_ (Opcode.Add Reg.Q) [ rcx; rbx ];
            ]
        in
        let defined_in = locset [ Liveness.Lgp Reg.Rax ] in
        (match Analysis.Dataflow.undef_reads p ~defined_in with
         | [ (1, [ Liveness.Lgp Reg.Rcx ]) ] -> ()
         | other ->
           Alcotest.failf "expected slot 1 rcx, got %d records" (List.length other)));
    Alcotest.test_case "defs feed later reads: no false undef" `Quick (fun () ->
        let p =
          Program.of_instrs
            [
              i_ (Opcode.Mov Reg.Q) [ rax; rcx ];
              i_ (Opcode.Add Reg.Q) [ rcx; rax ];
            ]
        in
        let defined_in = locset [ Liveness.Lgp Reg.Rax ] in
        Alcotest.(check int) "clean" 0
          (List.length (Analysis.Dataflow.undef_reads p ~defined_in)));
    Alcotest.test_case "flags are initially undefined" `Quick (fun () ->
        let p =
          Program.of_instrs [ i_ (Opcode.Cmov (Opcode.B, Reg.Q)) [ rax; rbx ] ]
        in
        let defined_in =
          locset [ Liveness.Lgp Reg.Rax; Liveness.Lgp Reg.Rbx ]
        in
        (match Analysis.Dataflow.undef_reads p ~defined_in with
         | [ (0, locs) ] ->
           Alcotest.(check bool) "flags flagged" true
             (List.mem Liveness.Lflags locs)
         | _ -> Alcotest.fail "expected one undef-read record"));
    Alcotest.test_case "diagnostics: dead slot, dead write, self-move" `Quick
      (fun () ->
        let p =
          Program.of_instrs
            [
              i_ (Opcode.Mov Reg.Q) [ rax; rax ]; (* self-move *)
              i_ (Opcode.Sub Reg.Q) [ rcx; rdx ]; (* rdx dead, flags live *)
              i_ (Opcode.Cmov (Opcode.B, Reg.Q)) [ rcx; rbx ];
              i_ (Opcode.Mov Reg.Q) [ rax; rdx ]; (* rdx dead: dead slot *)
            ]
        in
        let defined_in =
          locset
            [ Liveness.Lgp Reg.Rax; Liveness.Lgp Reg.Rbx; Liveness.Lgp Reg.Rcx;
              Liveness.Lgp Reg.Rdx ]
        in
        let live_out = locset [ Liveness.Lgp Reg.Rbx ] in
        let diags = Analysis.Dataflow.diagnostics p ~defined_in ~live_out in
        Alcotest.(check bool) "self-move at 0" true
          (has_finding diags 0 (function Analysis.Dataflow.Self_move -> true | _ -> false));
        Alcotest.(check bool) "dead write at 1" true
          (has_finding diags 1 (function
            | Analysis.Dataflow.Dead_write [ Liveness.Lgp Reg.Rdx ] -> true
            | _ -> false));
        Alcotest.(check bool) "dead slot at 3" true
          (has_finding diags 3 (function Analysis.Dataflow.Dead_slot -> true | _ -> false)));
    Alcotest.test_case "diagnostics listing several locations are pinned"
      `Quick (fun () ->
        let p =
          Program.of_instrs
            [
              i_ (Opcode.Cmov (Opcode.B, Reg.Q))
                [ mem Reg.Rsi ~index:(Reg.Rdi, 8) ~disp:8; rax ];
              i_ Opcode.Vaddsd
                [ Operand.Xmm Reg.Xmm9; Operand.Xmm Reg.Xmm2; Operand.Xmm Reg.Xmm1 ];
              i_ (Opcode.Sub Reg.Q) [ Operand.Gp Reg.R12; rdx ];
              i_ (Opcode.Cmov (Opcode.B, Reg.Q)) [ rdx; rbx ];
              i_ Opcode.Movaps [ Operand.Xmm Reg.Xmm1; Operand.Xmm Reg.Xmm1 ];
            ]
        in
        let defined_in = locset [ Liveness.Lgp Reg.Rbx; Liveness.Lgp Reg.Rdx ] in
        let live_out = locset [ Liveness.Lgp Reg.Rbx; Liveness.Lxmm Reg.Xmm1 ] in
        Alcotest.(check (list string)) "lint lines"
          [
            "slot 0: cmovbq 8(rsi,rdi,8), rax       dead: no def reaches a later use or the live-out set";
            "slot 0: cmovbq 8(rsi,rdi,8), rax       reads undefined location(s): flags, mem, rax, rsi, rdi";
            "slot 1: vaddsd xmm9, xmm2, xmm1        reads undefined location(s): xmm2, xmm9";
            "slot 2: subq r12, rdx                  reads undefined location(s): r12";
            "slot 4: movaps xmm1, xmm1              self-move: cannot change the machine state";
          ]
          (List.map
             (Analysis.Dataflow.diag_to_string p)
             (Analysis.Dataflow.diagnostics p ~defined_in ~live_out)));
    Alcotest.test_case "all built-in kernels are lint-clean" `Quick (fun () ->
        let registry =
          Kernels.Libimf.all
          @ [ ("s3d_exp", Kernels.S3d.exp_spec) ]
          @ Kernels.Aek_kernels.all_specs
        in
        List.iter
          (fun (name, spec) ->
            let diags = Analysis.Dataflow.lint_spec spec in
            List.iter
              (fun d ->
                Printf.printf "%s: %s\n" name
                  (Analysis.Dataflow.diag_to_string spec.Sandbox.Spec.program d))
              diags;
            Alcotest.(check int) (name ^ " clean") 0 (List.length diags))
          registry);
  ]

(* ----- screen soundness ----- *)

let random_program g pools nmax =
  let n = 1 + Rng.Dist.int g nmax in
  Program.of_instrs (List.init n (fun _ -> Search.Pools.random_instr g pools))

let screen_props =
  let specs = [| Kernels.Aek_kernels.add_spec; Kernels.S3d.exp_spec |] in
  let pools =
    Array.map
      (fun (spec : Sandbox.Spec.t) ->
        Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec)
      specs
  in
  let env_set (spec : Sandbox.Spec.t) =
    Liveness.Locset.add (Liveness.Lgp Reg.Rsp) (Sandbox.Spec.live_in_set spec)
  in
  (* One facts memo behind both envs, reused by every case, as a search
     reuses its context's memo across proposals. *)
  let facts = Facts.create () in
  let envs = Array.map (Analysis.Screen.env_of_spec ~facts) specs in
  [
    (* The screen's early-exit word loop and the dataflow's per-slot sets
       read the same Liveness tables (checked by the oracle, and the packed
       set by a reference-set test in test_x86), so this pins the loop, its
       environment and the memo it reads the sets from, not the tables. *)
    QCheck.Test.make ~name:"screen agrees with the dataflow analysis" ~count:500
      QCheck.int64 (fun seed ->
        let g = Rng.Xoshiro256.create seed in
        let which = Int64.to_int seed land 1 in
        let spec = specs.(which) in
        (* padded to 12 slots, so every case reuses the memo's arrays *)
        let p =
          let p = random_program g pools.(which) 12 in
          Program.with_padding (12 - Program.length p) (Program.instrs p)
        in
        let screen = Analysis.Screen.has_undef_read envs.(which) p in
        let dataflow =
          Analysis.Dataflow.undef_reads p ~defined_in:(env_set spec) <> []
        in
        screen = dataflow);
    (* No false positives: a screen-rejected program really performs the
       undef read when executed instruction by instruction on a live
       machine — and an accepted one performs none before its first
       fault. *)
    QCheck.Test.make ~name:"screen rejections exhibit a dynamic undef read"
      ~count:500 QCheck.int64 (fun seed ->
        let g = Rng.Xoshiro256.create seed in
        let which = Int64.to_int seed land 1 in
        let spec = specs.(which) in
        let p = random_program g pools.(which) 12 in
        let rejected =
          Analysis.Screen.has_undef_read (Analysis.Screen.env_of_spec spec) p
        in
        let m = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
        Sandbox.Testcase.apply (Sandbox.Spec.random_testcase g spec) m;
        let events = Oracles.Taint.undef_reads m p ~env:(env_set spec) in
        let pre_fault =
          List.filter (fun e -> not e.Oracles.Taint.after_fault) events
        in
        if rejected then events <> [] else pre_fault = []);
  ]

(* ----- DCE is cost-0-equivalent under every engine ----- *)

let dce_props =
  let spec = Kernels.Aek_kernels.add_spec in
  let pools = Search.Pools.make ~target:spec.Sandbox.Spec.program ~spec in
  (* one caller per available engine; every machine below has the
     spec's arena *)
  let engines =
    let template =
      Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size ()
    in
    List.map
      (fun e -> Sandbox.Engine.caller (Sandbox.Engine.of_engine e) template)
      (List.filter Sandbox.Engine.available Sandbox.Engine.all)
  in
  let run_engine caller m p =
    Sandbox.Engine.call (Sandbox.Engine.prepare_call caller m p)
  in
  [
    QCheck.Test.make
      ~name:"DCE output equivalent on live-out, memory and flags (both engines)"
      ~count:300 QCheck.int64 (fun seed ->
        let g = Rng.Xoshiro256.create seed in
        let p = random_program g pools 10 in
        (* vary the live-out set beyond the spec's so flag- and extra-reg
           liveness is exercised too *)
        let live_out =
          let base = Sandbox.Spec.live_out_set spec in
          let base =
            if Rng.Dist.bool g then Liveness.Locset.add Liveness.Lflags base
            else base
          in
          if Rng.Dist.bool g then Liveness.Locset.add (Liveness.Lgp Reg.Rcx) base
          else base
        in
        let q = Liveness.dce p ~live_out in
        let tc = Sandbox.Spec.random_testcase g spec in
        List.for_all
          (fun engine ->
            let fresh () =
              let m = Sandbox.Machine.create ~mem_size:spec.Sandbox.Spec.mem_size () in
              Sandbox.Testcase.apply tc m;
              m
            in
            let m1 = fresh () in
            let r1 = run_engine engine m1 p in
            let m2 = fresh () in
            let r2 = run_engine engine m2 q in
            match r1.Sandbox.Exec.outcome with
            | Sandbox.Exec.Faulted _ ->
              true (* original faults: DCE may legitimately remove the trap *)
            | Sandbox.Exec.Finished ->
              r2.Sandbox.Exec.outcome = Sandbox.Exec.Finished
              && Liveness.Locset.for_all
                   (fun loc ->
                     match loc with
                     | Liveness.Lgp r ->
                       Int64.equal (Sandbox.Machine.get_gp m1 r)
                         (Sandbox.Machine.get_gp m2 r)
                     | Liveness.Lxmm r ->
                       Sandbox.Machine.get_xmm m1 r = Sandbox.Machine.get_xmm m2 r
                     | Liveness.Lflags ->
                       let f1 = m1.Sandbox.Machine.flags
                       and f2 = m2.Sandbox.Machine.flags in
                       f1.Sandbox.Machine.cf = f2.Sandbox.Machine.cf
                       && f1.Sandbox.Machine.zf = f2.Sandbox.Machine.zf
                       && f1.Sandbox.Machine.sf = f2.Sandbox.Machine.sf
                       && f1.Sandbox.Machine.o_f = f2.Sandbox.Machine.o_f
                       && f1.Sandbox.Machine.pf = f2.Sandbox.Machine.pf
                     | Liveness.Lmem -> true (* compared below for all runs *))
                   live_out
              && Sandbox.Memory.equal m1.Sandbox.Machine.mem m2.Sandbox.Machine.mem)
          engines);
  ]

(* ----- the screen inside the search ----- *)

let search_tests =
  [
    Alcotest.test_case "screened and unscreened searches both reach cost 0"
      `Slow (fun () ->
        List.iter
          (fun (name, spec) ->
            let tests = Stoke.make_tests ~n:16 ~seed:7L spec in
            let params = Search.Cost.default_params ~eta:0L in
            let search static_screen =
              let ctx = Search.Cost.create spec params tests in
              let config =
                {
                  Search.Optimizer.default_config with
                  Search.Optimizer.proposals = 3_000;
                  seed = 11L;
                  static_screen;
                }
              in
              Search.Optimizer.run ctx config
            in
            let on = search true in
            let off = search false in
            Alcotest.(check bool) (name ^ ": screened finds cost-0") true
              (Option.is_some on.Search.Optimizer.best_correct);
            Alcotest.(check bool) (name ^ ": unscreened finds cost-0") true
              (Option.is_some off.Search.Optimizer.best_correct);
            Alcotest.(check bool) (name ^ ": screened rejects some proposals")
              true
              (on.Search.Optimizer.static_rejects > 0);
            Alcotest.(check int) (name ^ ": unscreened rejects none") 0
              off.Search.Optimizer.static_rejects)
          [
            ("add", Kernels.Aek_kernels.add_spec);
            ("scale", Kernels.Aek_kernels.scale_spec);
          ]);
    Alcotest.test_case "accepted proposals never carry an undef read" `Slow
      (fun () ->
        (* the screen maintains an invariant: the current program of a
           screened chain is always screen-clean, so the winner is too *)
        let spec = Kernels.S3d.exp_spec in
        let tests = Stoke.make_tests ~n:16 ~seed:3L spec in
        let params = Search.Cost.default_params ~eta:(Ulp.of_float 1e10) in
        let ctx = Search.Cost.create spec params tests in
        let config =
          {
            Search.Optimizer.default_config with
            Search.Optimizer.proposals = 5_000;
            seed = 5L;
          }
        in
        let r = Search.Optimizer.run ctx config in
        let env = Analysis.Screen.env_of_spec spec in
        Alcotest.(check bool) "winner is screen-clean" false
          (Analysis.Screen.has_undef_read env r.Search.Optimizer.best_overall);
        Alcotest.(check bool) "screen fired during the search" true
          (r.Search.Optimizer.static_rejects > 0));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("oracle", oracle_tests);
      ("table-fixes", table_fix_tests);
      ("dataflow", dataflow_tests);
      ("screen", List.map QCheck_alcotest.to_alcotest screen_props);
      ("dce-equivalence", List.map QCheck_alcotest.to_alcotest dce_props);
      ("search-screen", search_tests);
    ]

(* Tests for the observability layer: JSON round-trips (including the
   non-strict NaN/Infinity extension), counters/timers/histograms, sink
   semantics, and the end-to-end guarantees the hot paths rely on —
   telemetry never changes a fixed-seed search result, and every emitted
   event survives a JSONL round-trip. *)

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Obs.Json.to_string j)) Obs.Json.equal

let roundtrip j =
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "reparse failed: %s (on %s)" e (Obs.Json.to_string j)

let json_tests =
  [
    Alcotest.test_case "scalar round-trips" `Quick (fun () ->
        List.iter
          (fun j -> Alcotest.check json (Obs.Json.to_string j) j (roundtrip j))
          [
            Obs.Json.Null;
            Obs.Json.Bool true;
            Obs.Json.Bool false;
            Obs.Json.Int 0;
            Obs.Json.Int (-42);
            Obs.Json.Int max_int;
            Obs.Json.Float 0.1;
            Obs.Json.Float (-1.5e-300);
            Obs.Json.Float Float.pi;
            Obs.Json.String "";
            Obs.Json.String "plain";
          ]);
    Alcotest.test_case "non-finite floats round-trip (both encodings)" `Quick
      (fun () ->
        (* regression: the printer used to emit bare [NaN]/[Infinity]
           tokens by default, which every standard-compliant JSON parser
           rejects.  The default is now quoted string sentinels; the old
           form survives behind [~floats:`Bare]. *)
        let same x y =
          Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
          || (Float.is_nan x && Float.is_nan y)
        in
        List.iter
          (fun (x, sentinel) ->
            (* default encoding: a quoted sentinel string — valid JSON *)
            let s = Obs.Json.to_string (Obs.Json.Float x) in
            Alcotest.(check string) "sentinel form" (Printf.sprintf "%S" sentinel) s;
            (* a sentinel-blind reader sees a plain string, not a parse
               error *)
            Alcotest.check json "blind reader"
              (Obs.Json.String sentinel) (Obs.Json.of_string_exn s);
            (* a sentinel-aware reader recovers the float *)
            (match Obs.Json.of_string_exn ~float_sentinels:true s with
             | Obs.Json.Float y ->
               Alcotest.(check bool) "sentinel decode" true (same x y)
             | j -> Alcotest.failf "not a float: %s" (Obs.Json.to_string j));
            (* legacy encoding: the bare token, accepted by the parser
               with or without sentinel decoding *)
            let bare = Obs.Json.to_string ~floats:`Bare (Obs.Json.Float x) in
            Alcotest.(check string) "bare form" sentinel bare;
            match Obs.Json.of_string_exn bare with
            | Obs.Json.Float y ->
              Alcotest.(check bool) "bare decode" true (same x y)
            | j -> Alcotest.failf "not a float: %s" (Obs.Json.to_string j))
          [
            (Float.infinity, "Infinity");
            (Float.neg_infinity, "-Infinity");
            (Float.nan, "NaN");
          ]);
    Alcotest.test_case "sentinels decode only in value position" `Quick
      (fun () ->
        (* an object key spelled "NaN" must stay a key, and sentinel
           decoding must not leak into finite floats or other strings *)
        let j =
          Obs.Json.of_string_exn ~float_sentinels:true
            {|{"NaN":["Infinity","x",1.5]}|}
        in
        Alcotest.check json "key untouched, values decoded"
          (Obs.Json.Obj
             [
               ( "NaN",
                 Obs.Json.List
                   [
                     Obs.Json.Float Float.infinity;
                     Obs.Json.String "x";
                     Obs.Json.Float 1.5;
                   ] );
             ])
          j);
    Alcotest.test_case "integral floats stay floats" `Quick (fun () ->
        (* 3.0 must print as "3.0", not "3", or it reparses as Int *)
        Alcotest.check json "3.0" (Obs.Json.Float 3.0)
          (roundtrip (Obs.Json.Float 3.0)));
    Alcotest.test_case "string escapes round-trip" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.check json (String.escaped s) (Obs.Json.String s)
              (roundtrip (Obs.Json.String s)))
          [ "quote\"back\\slash"; "tab\tnewline\n"; "nul\000ctrl\031"; "µ∂é" ]);
    Alcotest.test_case "unicode escapes parse" `Quick (fun () ->
        (* é is U+00E9; 😀 is a surrogate pair for U+1F600 *)
        Alcotest.check json "bmp" (Obs.Json.String "\xc3\xa9")
          (Obs.Json.of_string_exn {|"\u00e9"|});
        Alcotest.check json "astral" (Obs.Json.String "\xf0\x9f\x98\x80")
          (Obs.Json.of_string_exn {|"\ud83d\ude00"|}));
    Alcotest.test_case "nested structures round-trip" `Quick (fun () ->
        let j =
          Obs.Json.Obj
            [
              ("a", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Null ]);
              ("b", Obs.Json.Obj [ ("c", Obs.Json.Float 2.5) ]);
              ("empty_list", Obs.Json.List []);
              ("empty_obj", Obs.Json.Obj []);
            ]
        in
        Alcotest.check json "nested" j (roundtrip j));
    Alcotest.test_case "whitespace tolerated" `Quick (fun () ->
        Alcotest.check json "spaced"
          (Obs.Json.Obj [ ("k", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]) ])
          (Obs.Json.of_string_exn " { \"k\" : [ 1 ,\t2 ] }\n"));
    Alcotest.test_case "malformed input rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Obs.Json.of_string s with
            | Ok j ->
              Alcotest.failf "accepted %S as %s" s (Obs.Json.to_string j)
            | Error _ -> ())
          [
            ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2";
            "{\"a\":1,}"; "+5"; "nan";
          ]);
    Alcotest.test_case "accessors" `Quick (fun () ->
        let j =
          Obs.Json.Obj
            [
              ("i", Obs.Json.Int 7);
              ("f", Obs.Json.Float 2.5);
              ("s", Obs.Json.String "x");
              ("b", Obs.Json.Bool true);
              ("l", Obs.Json.List [ Obs.Json.Int 1 ]);
            ]
        in
        let get k = Option.get (Obs.Json.member k j) in
        Alcotest.(check (option int)) "int" (Some 7) (Obs.Json.to_int_opt (get "i"));
        Alcotest.(check (option (float 0.))) "float" (Some 2.5)
          (Obs.Json.to_float_opt (get "f"));
        Alcotest.(check (option (float 0.))) "int as float" (Some 7.)
          (Obs.Json.to_float_opt (get "i"));
        Alcotest.(check (option string)) "string" (Some "x")
          (Obs.Json.to_string_opt (get "s"));
        Alcotest.(check (option bool)) "bool" (Some true)
          (Obs.Json.to_bool_opt (get "b"));
        Alcotest.(check bool) "list" true
          (Obs.Json.to_list_opt (get "l") = Some [ Obs.Json.Int 1 ]);
        Alcotest.(check bool) "absent member" true (Obs.Json.member "zz" j = None);
        Alcotest.(check bool) "wrong kind" true
          (Obs.Json.to_int_opt (get "s") = None));
  ]

let sink_tests =
  [
    Alcotest.test_case "null sink is disabled and inert" `Quick (fun () ->
        Alcotest.(check bool) "disabled" false (Obs.Sink.enabled Obs.Sink.null);
        Obs.Sink.emit Obs.Sink.null "ev" [];
        Alcotest.(check bool) "drains empty" true
          (Obs.Sink.drain Obs.Sink.null = []);
        Obs.Sink.close Obs.Sink.null);
    Alcotest.test_case "memory sink buffers and drain clears" `Quick (fun () ->
        let s = Obs.Sink.memory () in
        Alcotest.(check bool) "enabled" true (Obs.Sink.enabled s);
        Obs.Sink.emit s "a" [ ("x", Obs.Json.Int 1) ];
        Obs.Sink.emit s "b" [];
        let evs = Obs.Sink.drain s in
        Alcotest.(check (list string)) "order" [ "a"; "b" ]
          (List.map (fun (e : Obs.Sink.event) -> e.Obs.Sink.name) evs);
        Alcotest.(check bool) "cleared" true (Obs.Sink.drain s = []));
    Alcotest.test_case "callback sink sees every event" `Quick (fun () ->
        let n = ref 0 in
        let s = Obs.Sink.callback (fun _ -> incr n) in
        Obs.Sink.emit s "x" [];
        Obs.Sink.emit s "y" [];
        Alcotest.(check int) "two calls" 2 !n);
    Alcotest.test_case "tee delivers to both; null collapses" `Quick (fun () ->
        let a = Obs.Sink.memory () and b = Obs.Sink.memory () in
        let t = Obs.Sink.tee a b in
        Obs.Sink.emit t "ev" [];
        Alcotest.(check int) "left" 1 (List.length (Obs.Sink.drain a));
        Alcotest.(check int) "right" 1 (List.length (Obs.Sink.drain b));
        Alcotest.(check bool) "null+null disabled" false
          (Obs.Sink.enabled (Obs.Sink.tee Obs.Sink.null Obs.Sink.null));
        Alcotest.(check bool) "null+mem enabled" true
          (Obs.Sink.enabled (Obs.Sink.tee Obs.Sink.null a)));
    Alcotest.test_case "file sink writes one JSONL line per event" `Quick
      (fun () ->
        let path = Filename.temp_file "obs_test" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let s = Obs.Sink.to_file path in
        Obs.Sink.emit s "first" [ ("v", Obs.Json.Float Float.infinity) ];
        Obs.Sink.emit s "second" [ ("msg", Obs.Json.String "a\"b") ];
        Obs.Sink.close s;
        Obs.Sink.close s;
        (* idempotent *)
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        let lines = List.rev !lines in
        Alcotest.(check int) "two lines" 2 (List.length lines);
        List.iter2
          (fun line name ->
            match Obs.Sink.event_of_string line with
            | Error e -> Alcotest.failf "bad line %S: %s" line e
            | Ok ev ->
              Alcotest.(check string) "name" name ev.Obs.Sink.name)
          lines [ "first"; "second" ]);
    Alcotest.test_case "shared file sink survives multi-domain writers" `Quick
      (fun () ->
        (* Regression: per-event channel writes used to be three separate
           operations (string, newline, flush), so domains sharing one
           sink interleaved partial lines into unparseable JSONL.  Every
           line must now parse and every event must arrive. *)
        let domains = 4 and per_domain = 40 in
        let path = Filename.temp_file "obs_stress" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let s = Obs.Sink.to_file path in
        (* events larger than the channel buffer force a mid-event write
           syscall — a scheduling point that reliably exposed the race
           even on one core *)
        let filler = String.make (96 * 1024) 'x' in
        let go = Atomic.make false in
        let worker d () =
          while not (Atomic.get go) do
            Domain.cpu_relax ()
          done;
          for i = 0 to per_domain - 1 do
            Obs.Sink.emit s "stress"
              [
                ("domain", Obs.Json.Int d);
                ("i", Obs.Json.Int i);
                ("filler", Obs.Json.String filler);
              ]
          done
        in
        let hs = Array.init domains (fun d -> Domain.spawn (worker d)) in
        Atomic.set go true;
        Array.iter Domain.join hs;
        Obs.Sink.close s;
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        let lines = List.rev !lines in
        Alcotest.(check int) "every event on its own line"
          (domains * per_domain) (List.length lines);
        let seen = Array.make_matrix domains per_domain false in
        List.iter
          (fun line ->
            match Obs.Sink.event_of_string line with
            | Error e -> Alcotest.failf "unparseable line %S: %s" line e
            | Ok ev ->
              let geti k =
                match List.assoc_opt k ev.Obs.Sink.fields with
                | Some (Obs.Json.Int v) -> v
                | _ -> Alcotest.failf "line %S lost field %s" line k
              in
              seen.(geti "domain").(geti "i") <- true)
          lines;
        Array.iteri
          (fun d row ->
            Array.iteri
              (fun i ok ->
                if not ok then Alcotest.failf "event %d/%d missing" d i)
              row)
          seen);
    Alcotest.test_case "event serialization round-trips" `Quick (fun () ->
        let ev =
          {
            Obs.Sink.name = "geweke";
            t_ms = 12.5;
            fields =
              [
                ("z", Obs.Json.Float Float.nan);
                ("iter", Obs.Json.Int 40_000);
                ("converged", Obs.Json.Bool false);
              ];
          }
        in
        match Obs.Sink.event_of_string (Obs.Sink.event_to_string ev) with
        | Error e -> Alcotest.failf "round-trip failed: %s" e
        | Ok ev' ->
          Alcotest.(check bool) "equal" true (Obs.Sink.event_equal ev ev'));
    Alcotest.test_case "event round-trips under both float encodings" `Quick
      (fun () ->
        let ev =
          {
            Obs.Sink.name = "frontier_point";
            t_ms = 0.25;
            fields =
              [
                ("err", Obs.Json.Float Float.nan);
                ("hi", Obs.Json.Float Float.infinity);
                ("lo", Obs.Json.Float Float.neg_infinity);
                ("speedup", Obs.Json.Float 1.75);
              ];
          }
        in
        List.iter
          (fun floats ->
            match
              Obs.Sink.event_of_string (Obs.Sink.event_to_string ~floats ev)
            with
            | Error e -> Alcotest.failf "round-trip failed: %s" e
            | Ok ev' ->
              Alcotest.(check bool) "equal" true (Obs.Sink.event_equal ev ev'))
          [ `Sentinels; `Bare ]);
    Alcotest.test_case "envelope keys come first" `Quick (fun () ->
        let ev = { Obs.Sink.name = "e"; t_ms = 1.; fields = [ ("k", Obs.Json.Int 1) ] } in
        match Obs.Sink.event_to_json ev with
        | Obs.Json.Obj (("event", _) :: ("t_ms", _) :: _) -> ()
        | j -> Alcotest.failf "bad envelope: %s" (Obs.Json.to_string j));
  ]

(* --- end-to-end: the optimizer's stream --- *)

let spec = Kernels.Aek_kernels.add_spec

let search_result ?obs ?progress_every () =
  let ctx =
    Search.Cost.create spec
      (Search.Cost.default_params ~eta:0L)
      (Stoke.make_tests ~n:8 ~seed:61L spec)
  in
  let config =
    { Search.Optimizer.default_config with Search.Optimizer.proposals = 5_000 }
  in
  Search.Optimizer.run ?obs ?progress_every ctx config

let events_named name evs =
  List.filter (fun (e : Obs.Sink.event) -> e.Obs.Sink.name = name) evs

let field ev key = Obs.Json.member key (Obs.Json.Obj (ev : Obs.Sink.event).Obs.Sink.fields)

let optimizer_stream_tests =
  [
    Alcotest.test_case "telemetry does not change the result" `Quick (fun () ->
        let plain = search_result () in
        let sink = Obs.Sink.memory () in
        let observed = search_result ~obs:sink ~progress_every:500 () in
        Alcotest.(check bool)
          "same best program" true
          (match
             ( plain.Search.Optimizer.best_correct,
               observed.Search.Optimizer.best_correct )
           with
           | None, None -> true
           | Some p, Some q -> Program.equal p q
           | _ -> false);
        Alcotest.(check int) "same accepted count" plain.Search.Optimizer.accepted
          observed.Search.Optimizer.accepted;
        Alcotest.(check int) "same evaluations"
          plain.Search.Optimizer.evaluations
          observed.Search.Optimizer.evaluations);
    Alcotest.test_case "stream has the documented shape" `Quick (fun () ->
        let sink = Obs.Sink.memory () in
        let r = search_result ~obs:sink ~progress_every:1_000 () in
        let evs = Obs.Sink.drain sink in
        (* every event survives the JSONL round-trip *)
        List.iter
          (fun ev ->
            match Obs.Sink.event_of_string (Obs.Sink.event_to_string ev) with
            | Ok ev' ->
              Alcotest.(check bool) "round-trips" true
                (Obs.Sink.event_equal ev ev')
            | Error e -> Alcotest.failf "event %s: %s" ev.Obs.Sink.name e)
          evs;
        Alcotest.(check int) "one search_start" 1
          (List.length (events_named "search_start" evs));
        Alcotest.(check int) "one chain_start" 1
          (List.length (events_named "chain_start" evs));
        Alcotest.(check int) "one search_end" 1
          (List.length (events_named "search_end" evs));
        Alcotest.(check bool) "log-spaced checkpoints present" true
          (List.length (events_named "checkpoint" evs) >= 4);
        Alcotest.(check int) "progress cadence" 5
          (List.length (events_named "progress" evs));
        (* timestamps are monotone *)
        let rec mono = function
          | (a : Obs.Sink.event) :: (b :: _ as rest) ->
            Alcotest.(check bool) "t_ms monotone" true
              (a.Obs.Sink.t_ms <= b.Obs.Sink.t_ms);
            mono rest
          | _ -> ()
        in
        mono evs;
        (* search_end agrees with the returned result *)
        let e = List.hd (events_named "search_end" evs) in
        Alcotest.(check (option int)) "accepted" (Some r.Search.Optimizer.accepted)
          (Option.bind (field e "accepted") Obs.Json.to_int_opt);
        Alcotest.(check (option int)) "proposals"
          (Some r.Search.Optimizer.proposals_made)
          (Option.bind (field e "proposals_made") Obs.Json.to_int_opt);
        (* per-kind move stats embedded and consistent *)
        let moves = Option.get (field e "moves") in
        List.iteri
          (fun k name ->
            let m = Option.get (Obs.Json.member name moves) in
            let geti key =
              Option.get (Option.bind (Obs.Json.member key m) Obs.Json.to_int_opt)
            in
            Alcotest.(check int)
              (name ^ " proposed")
              r.Search.Optimizer.moves.Search.Optimizer.proposed.(k)
              (geti "proposed");
            Alcotest.(check int)
              (name ^ " accepted")
              r.Search.Optimizer.moves.Search.Optimizer.accepted_by_kind.(k)
              (geti "accepted"))
          [ "opcode"; "operand"; "swap"; "instruction" ]);
    Alcotest.test_case "checkpoints mirror the returned trace" `Quick (fun () ->
        let sink = Obs.Sink.memory () in
        let r = search_result ~obs:sink () in
        let checkpoints = events_named "checkpoint" (Obs.Sink.drain sink) in
        Alcotest.(check int) "same count"
          (List.length r.Search.Optimizer.trace)
          (List.length checkpoints);
        List.iter2
          (fun (t : Search.Optimizer.trace_entry) ev ->
            Alcotest.(check (option int)) "iter" (Some t.Search.Optimizer.iter)
              (Option.bind (field ev "iter") Obs.Json.to_int_opt);
            Alcotest.(check (option (float 0.))) "best"
              (Some t.Search.Optimizer.best_total)
              (Option.bind (field ev "best_total") Obs.Json.to_float_opt))
          r.Search.Optimizer.trace checkpoints);
  ]

let validate_stream_tests =
  [
    Alcotest.test_case "driver emits start, geweke, end" `Quick (fun () ->
        let errfn =
          Validate.Errfn.create spec ~rewrite:spec.Sandbox.Spec.program
        in
        let config =
          {
            Validate.Driver.default_config with
            Validate.Driver.max_proposals = 4_000;
            min_samples = 1_000;
            check_every = 1_000;
          }
        in
        let sink = Obs.Sink.memory () in
        let v = Validate.Driver.run ~obs:sink ~config ~eta:0L errfn in
        let evs = Obs.Sink.drain sink in
        Alcotest.(check int) "one start" 1
          (List.length (events_named "validate_start" evs));
        Alcotest.(check bool) "geweke checks" true
          (List.length (events_named "geweke" evs) >= 1);
        let e = List.hd (events_named "validate_end" evs) in
        Alcotest.(check (option (float 0.))) "max err agrees"
          (Some (Ulp.to_float v.Validate.Driver.max_err))
          (Option.bind (field e "max_err_ulps") Obs.Json.to_float_opt);
        Alcotest.(check (option bool)) "verdict agrees"
          (Some v.Validate.Driver.validated)
          (Option.bind (field e "validated") Obs.Json.to_bool_opt);
        Alcotest.(check (option bool)) "refuted on every run" (Some false)
          (Option.bind (field e "refuted") Obs.Json.to_bool_opt));
    Alcotest.test_case "driver verdict unchanged by telemetry" `Quick (fun () ->
        let run obs =
          let errfn =
            Validate.Errfn.create spec ~rewrite:spec.Sandbox.Spec.program
          in
          let config =
            {
              Validate.Driver.default_config with
              Validate.Driver.max_proposals = 3_000;
            }
          in
          Validate.Driver.run ?obs ~config ~eta:0L errfn
        in
        let a = run None and b = run (Some (Obs.Sink.memory ())) in
        Alcotest.(check bool) "same max err" true
          (Ulp.compare a.Validate.Driver.max_err b.Validate.Driver.max_err = 0);
        Alcotest.(check int) "same iterations" a.Validate.Driver.iterations
          b.Validate.Driver.iterations);
  ]

let exec_counter_tests =
  [
    Alcotest.test_case "disabled counters stay zero" `Quick (fun () ->
        Sandbox.Exec.Counters.disable ();
        Sandbox.Exec.Counters.reset ();
        ignore (search_result ());
        let s = Sandbox.Exec.Counters.snapshot () in
        Alcotest.(check int) "runs" 0 s.Sandbox.Exec.Counters.runs;
        Alcotest.(check int) "instrs" 0 s.Sandbox.Exec.Counters.instrs);
    Alcotest.test_case "enabled counters track sandbox runs" `Quick (fun () ->
        Sandbox.Exec.Counters.reset ();
        Sandbox.Exec.Counters.enable ();
        Fun.protect ~finally:Sandbox.Exec.Counters.disable @@ fun () ->
        let tc = Sandbox.Spec.random_testcase (Rng.Xoshiro256.create 5L) spec in
        for _ = 1 to 3 do
          ignore
            (Sandbox.Exec.run_testcase ~mem_size:spec.Sandbox.Spec.mem_size
               spec.Sandbox.Spec.program tc)
        done;
        let s = Sandbox.Exec.Counters.snapshot () in
        Alcotest.(check int) "three runs" 3 s.Sandbox.Exec.Counters.runs;
        Alcotest.(check bool) "instructions counted" true
          (s.Sandbox.Exec.Counters.instrs
          >= 3 * Program.length spec.Sandbox.Spec.program);
        Alcotest.(check bool) "cycles counted" true
          (s.Sandbox.Exec.Counters.cycles > 0);
        Alcotest.(check int) "no faults" 0 s.Sandbox.Exec.Counters.faults);
  ]

let () =
  Alcotest.run "obs"
    [
      ("json", json_tests);
      ("sink", sink_tests);
      ("optimizer-stream", optimizer_stream_tests);
      ("validate-stream", validate_stream_tests);
      ("exec-counters", exec_counter_tests);
    ]

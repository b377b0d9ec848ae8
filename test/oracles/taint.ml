(* Execution-grounded undef-read oracle: step the program on a real machine
   with Semantics.step, carrying the defined-locations set alongside.  Two
   deliberate differences from the static analysis make it the stricter
   judge for the screen's no-false-positives property:

   - it keeps stepping past faults (straight-line code: later slots still
     read their operands even if an earlier access trapped), and
   - a slot that faulted contributes no defs (its write never happened), so
     the dynamic defined set is a subset of the static one and the dynamic
     undef reads are a superset of the static findings.

   Hence Analysis.Screen.has_undef_read env p = true implies undef_reads here is
   non-empty, and before the first fault the two agree exactly. *)

type event = {
  slot : int;
  locs : Liveness.loc list;
  after_fault : bool; (* a preceding slot had already faulted *)
}

let undef_reads (m : Sandbox.Machine.t) p ~env =
  let defined = ref env in
  let faulted = ref false in
  let out = ref [] in
  Array.iteri
    (fun idx slot ->
      match slot with
      | Program.Unused -> ()
      | Program.Active i ->
        let missing = Liveness.Locset.diff (Liveness.strict_uses i) !defined in
        if not (Liveness.Locset.is_empty missing) then
          out :=
            {
              slot = idx;
              locs = Liveness.Locset.elements missing;
              after_fault = !faulted;
            }
            :: !out;
        (match Sandbox.Semantics.step m i with
         | Ok () -> defined := Liveness.Locset.union !defined (Liveness.defs i)
         | Error _ -> faulted := true))
    p.Program.slots;
  List.rev !out

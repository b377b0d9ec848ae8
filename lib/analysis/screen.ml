(* The proposal-rate undef-read filter.  Same analysis as
   Dataflow.undef_reads, but it stops at the first finding; with
   [Liveness.Locset] packed into one word, the per-proposal cost is a
   subset test and a union per slot — cheap enough to run on every
   proposal before any test case executes. *)

type env = Liveness.Locset.t

let env_of_spec (spec : Sandbox.Spec.t) =
  (* The machine defines rsp before the first instruction runs. *)
  Liveness.Locset.add (Liveness.Lgp Reg.Rsp) (Sandbox.Spec.live_in_set spec)

let has_undef_read (env : env) p =
  let slots = p.Program.slots in
  let rec go idx defined =
    idx < Array.length slots
    &&
    match slots.(idx) with
    | Program.Unused -> go (idx + 1) defined
    | Program.Active i ->
      (not (Liveness.Locset.subset (Liveness.strict_uses i) defined))
      || go (idx + 1) (Liveness.Locset.union defined (Liveness.defs i))
  in
  go 0 env

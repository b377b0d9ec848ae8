(* The proposal-rate undef-read filter.  Same analysis as
   Dataflow.undef_reads, but it stops at the first finding, and it reads
   each slot's def and use sets from a [Facts] table, so a proposal
   re-derives the sets of the slots it changed and nothing else; the
   walk itself is a subset test and a union per active slot
   ([Facts.has_undef_read]) — cheap enough to run on every proposal
   before any test case executes. *)

type env = {
  defined : Liveness.Locset.t;
  facts : Facts.t;
}

let env_of_spec ?(facts = Facts.create ()) (spec : Sandbox.Spec.t) =
  (* The machine defines rsp before the first instruction runs. *)
  {
    defined =
      Liveness.Locset.add (Liveness.Lgp Reg.Rsp) (Sandbox.Spec.live_in_set spec);
    facts;
  }

let has_undef_read ?(refreshed = false) env p =
  if not refreshed then Facts.refresh env.facts p;
  Facts.has_undef_read env.facts ~defined:env.defined

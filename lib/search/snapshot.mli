(** Checkpoint/resume serialization for orchestrated searches.

    A snapshot is the JSON image of the control plane's latest per-chain
    publications ({!Control.chain_pub}) plus a {b config fingerprint} — an
    MD5 digest over everything that determines the search trajectory (spec,
    cost params, search config, test cases, domain count).  {!Parallel.run}
    refuses to resume from a snapshot whose fingerprint does not match the
    run it would continue, because a chain's RNG replay is only meaningful
    against the exact same search problem.

    Deliberately {e outside} the fingerprint: [stop_when], [deadline_s],
    and the checkpoint cadence — stopping policy does not alter any chain's
    trajectory, and changing it on resume (e.g. dropping the deadline that
    interrupted the original run) is the point of resuming.  Also outside:
    [prune], [engine], and [trace_points], which are result-transparent by
    construction.

    Programs are serialized slot-exactly (one JSON entry per slot, [null]
    for [Unused]) via the assembly printer and parser, and RNG states and
    seeds as decimal-string int64s — JSON numbers only carry 63-bit OCaml
    ints.  Costs are not serialized at all; the resuming run re-evaluates,
    which is bit-identical because evaluation is deterministic. *)

type t = {
  version : int;
  fingerprint : string;
  domains : int;
  stop_reason : string option;
      (** {!Control.stop_reason_to_string} of the reason the writing run
          stopped, if it had stopped when the snapshot was written *)
  elapsed_s : float;  (** wall-clock seconds the writing run had spent *)
  chains : Control.chain_pub option array;
      (** indexed by chain slot; [None] for a chain that never published *)
}

val current_version : int

val fingerprint :
  spec:Sandbox.Spec.t ->
  params:Cost.params ->
  config:Optimizer.config ->
  tests:Sandbox.Testcase.t array ->
  domains:int ->
  string
(** Hex MD5 over a canonical rendering of every trajectory-determining
    input.  Floats render with [%h] and int64s in full, so two configs
    fingerprint equal iff they search identically. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

(** {2 Pieces for other checkpoint formats}

    {!Frontier}'s snapshot is built from the same encodings and read by
    the same decoders.  A decoder raises [Bad] with the message that
    ends up in the caller's [Error]. *)

exception Bad of string

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style [raise (Bad msg)]. *)

val get : Obs.Json.t -> string -> Obs.Json.t
(** [get obj key]: the field, or [Bad "missing field …"]. *)

val to_int : Obs.Json.t -> int
val to_bool : Obs.Json.t -> bool

val json_of_program : Program.t -> Obs.Json.t
(** The slot-exact program encoding used inside snapshots. *)

val program_of_json : Obs.Json.t -> Program.t
val json_of_rng : int64 array -> Obs.Json.t
val rng_of_json : Obs.Json.t -> int64 array

val read_json :
  path:string -> (Obs.Json.t -> ('a, string) result) -> ('a, string) result
(** Read [path], parse it as JSON and decode it: I/O, parse and decode
    errors all land in [Error]. *)

val atomic_write_string : path:string -> string -> unit
(** Write [contents] to a staging file private to this writer (pid + a
    process-wide counter, so concurrent writers — even into the same
    directory from several domains or processes — never share a tmp
    name), then rename it over [path].  A reader always sees either the
    old image or a complete new one; the staging file is removed on
    failure.  Shared by {!write}, {!Frontier.write_snapshot}, and the
    serve daemon's job/result files. *)

val write : path:string -> t -> unit
(** Atomic via {!atomic_write_string}: a crash mid-write never leaves a
    torn snapshot behind, and concurrent writers to one [path] cannot
    corrupt each other (last rename wins whole). *)

val read : path:string -> (t, string) result
(** I/O and parse errors both land in [Error]. *)

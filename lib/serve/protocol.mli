(** Wire protocol for the [stoke serve] daemon.

    Everything on the socket is newline-delimited JSON.  A client sends
    exactly one request line; the server answers with a stream of
    {!Obs.Sink} events (the job's live telemetry, one JSONL line each)
    and closes the connection after the terminal [job_end] event (or
    [pong], for {!Ping}).  There is no other framing: a consumer that
    can tail the [--trace-out] files can read a serve connection.

    Requests deliberately name kernels rather than carrying programs:
    the daemon only ever executes specs from its own registry, so a
    client cannot make it run arbitrary code.  ({!Validate} carries a
    rewrite as assembly text, which is parsed — never executed natively
    without going through the sandbox like any other candidate.) *)

type action =
  | Optimize of { eta : float; proposals : int; seed : int; domains : int }
  | Frontier of { etas : float list; proposals : int; seed : int }
  | Validate of { eta : float; rewrite : string; seed : int }
      (** [rewrite] is assembly text, one instruction per line *)
  | Ping  (** liveness probe: the server answers [pong] and closes *)
  | Shutdown
      (** graceful stop: running jobs are cancelled (their checkpoints
          survive for a later resume), queued jobs are refused *)

type request = {
  kernel : string;  (** registry name; ignored for ping/shutdown *)
  tenant : string;  (** fair-share group (default {!default_tenant}) *)
  deadline_s : float option;
      (** per-job wall-clock budget; the server's default applies when
          absent *)
  action : action;
}

val default_tenant : string

val op_name : action -> string

val request_to_json : request -> Obs.Json.t
val request_to_string : request -> string
(** One line, no trailing newline. *)

val request_of_json : Obs.Json.t -> (request, string) result
(** Strict on job-defining fields: [kernel] and [eta] are required for
    job ops ([eta] for optimize/validate), and a field that is present
    but unparseable ([proposals], [seed], [domains], [deadline_s],
    [etas] entries) is an [Error], never a silent default — a mistyped
    request must not run an expensive job with parameters the client
    never asked for.  Values must make sense too: [eta] and every
    [etas] entry must pass {!Ulp.eta_of_float} (≥ 0, not NaN), and
    [proposals] must be ≥ 0 ([domains] is left to the server, which
    clamps it).  Absent optional fields still default
    ([proposals] 200k, [seed] 1, [domains] 1, tenant
    {!default_tenant}). *)

val request_of_string : string -> (request, string) result

(** {2 Result payloads} — the ["result"] field of a [job_end] event,
    shared by the live path and the memo table so a cached answer is
    byte-identical to a fresh one. *)

val optimize_result_json :
  Sandbox.Spec.t -> Search.Optimizer.result -> Obs.Json.t

val frontier_result_json : Search.Frontier.result -> Obs.Json.t
val validate_result_json : Validate.Driver.verdict -> Obs.Json.t

(* Operations attempted and failed in one run, with a reason for each
   failure. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; reasons = [] }

(* Count one operation; [Error why] counts it as failed. *)
let record t outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | Ok () -> ()
  | Error why ->
    t.failed <- t.failed + 1;
    t.reasons <- why :: t.reasons

let check t cond fmt =
  Printf.ksprintf (fun why -> record t (if cond then Ok () else Error why)) fmt

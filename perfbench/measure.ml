(* Timing, order statistics and the host fingerprint. *)

let now_ns () = Obs.Clock.now_ns ()

let secs_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

let secs_since t0 = secs_between t0 (now_ns ())

(* [timed f] = (f (), wall seconds). *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* Order statistics over lists of samples, from the stats library;
   [quantile] takes [p] in [0, 1] and interpolates between ranks. *)
let quantile p xs = Stats.Descriptive.quantile (Array.of_list xs) p
let median xs = quantile 0.5 xs
let mean xs = Stats.Descriptive.mean (Array.of_list xs)

(* The tail every workload reports, and the samples a run needs for it to
   have ten beyond it. *)
let tail = 0.9
let tail_samples = 100

(* A closed loop goes on until the run length has passed and every count
   has reached its minimum, but never past three run lengths plus 30 s. *)
let keep_going ~t0 ~seconds mins =
  let el = secs_since t0 in
  el < 3. *. seconds +. 30.
  && (el < seconds || List.exists (fun (have, need) -> !have < need) mins)

(* ---------- host ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set (VmHWM) of this process, in MB; 0 when unreadable. *)
let peak_rss_mb () =
  match read_lines "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | lines ->
    List.fold_left
      (fun acc l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          match Scanf.sscanf l "VmHWM: %d kB" (fun k -> k) with
          | k -> float_of_int k /. 1024.
          | exception _ -> acc
        else acc)
      0. lines

let nproc () = Domain.recommended_domain_count ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

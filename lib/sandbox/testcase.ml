type t = {
  gps : (Reg.gp * int64) list;
  xmms : (Reg.xmm * (int64 * int64)) list;
  mem_writes : (int64 * string) list;
}

let empty = { gps = []; xmms = []; mem_writes = [] }

let f64_bytes x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  Bytes.to_string b

let f32_bytes x =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.bits_of_float x);
  Bytes.to_string b

let of_f64 pairs =
  {
    empty with
    xmms = List.map (fun (r, x) -> (r, (Int64.bits_of_float x, 0L))) pairs;
  }

let of_f32 pairs =
  {
    empty with
    xmms =
      List.map
        (fun (r, x) ->
          (r, (Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xffff_ffffL, 0L)))
        pairs;
  }

let with_gp r v t = { t with gps = (r, v) :: t.gps }
let with_xmm r v t = { t with xmms = (r, v) :: t.xmms }
let with_f64 r x t = with_xmm r (Int64.bits_of_float x, 0L) t

let with_f32 r x t =
  with_xmm r (Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xffff_ffffL, 0L) t

let with_f32_pair r (x0, x1) t =
  let lo =
    Int64.logor
      (Int64.logand (Int64.of_int32 (Int32.bits_of_float x0)) 0xffff_ffffL)
      (Int64.shift_left (Int64.of_int32 (Int32.bits_of_float x1)) 32)
  in
  with_xmm r (lo, 0L) t

let with_mem addr bytes t = { t with mem_writes = (addr, bytes) :: t.mem_writes }

let with_mem_f32s addr floats t =
  with_mem addr (String.concat "" (List.map f32_bytes floats)) t

let with_mem_f64s addr floats t =
  with_mem addr (String.concat "" (List.map f64_bytes floats)) t

(* Plain recursive loops: a [List.iter] over a function of [m] would
   allocate its closure on every call. *)
let rec apply_gps (m : Machine.t) = function
  | [] -> ()
  | (r, v) :: rest ->
    Machine.set_gp m r v;
    apply_gps m rest

let rec apply_xmms (m : Machine.t) = function
  | [] -> ()
  | (r, v) :: rest ->
    Machine.set_xmm m r v;
    apply_xmms m rest

let rec apply_mem mem = function
  | [] -> ()
  | (addr, s) :: rest ->
    Memory.set_bytes mem addr s;
    apply_mem mem rest

let apply t (m : Machine.t) =
  apply_gps m t.gps;
  apply_xmms m t.xmms;
  apply_mem m.Machine.mem t.mem_writes

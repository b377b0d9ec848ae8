type t = {
  base : int64;
  data : Bytes.t;
  (* Dirty-range high-water marks: every mutation widens [dirty_lo,
     dirty_hi) so {!restore_from} can undo only the bytes a run actually
     touched.  [dirty_lo >= dirty_hi] means clean. *)
  mutable dirty_lo : int;
  mutable dirty_hi : int;
  (* The bytes this arena was last made bit-equal to by a full copy
     (physical identity).  When a later [restore_from] names the same
     source and that source is itself clean, only the dirty range needs
     re-copying. *)
  mutable shadow : Bytes.t option;
}

type fault =
  | Out_of_bounds of int64
  | Misaligned of int64

exception Fault_exn of fault

let clean_lo = max_int

let create ?(base = 0x100000L) n =
  if n <= 0 then invalid_arg "Memory.create: non-positive size";
  { base; data = Bytes.make n '\000'; dirty_lo = clean_lo; dirty_hi = 0;
    shadow = None }

let base t = t.base
let size t = Bytes.length t.data

let is_clean t = t.dirty_lo >= t.dirty_hi

let copy t =
  { base = t.base; data = Bytes.copy t.data; dirty_lo = clean_lo;
    dirty_hi = 0; shadow = None }

let mark t off n =
  if off < t.dirty_lo then t.dirty_lo <- off;
  let e = off + n in
  if e > t.dirty_hi then t.dirty_hi <- e

let blit_from ~src ~dst =
  if Bytes.length src.data <> Bytes.length dst.data then
    invalid_arg "Memory.blit_from: size mismatch";
  Bytes.blit src.data 0 dst.data 0 (Bytes.length src.data);
  dst.dirty_lo <- clean_lo;
  dst.dirty_hi <- 0;
  dst.shadow <- Some src.data

let integrity_checks = ref false
let set_integrity_checks b = integrity_checks := b

(* Catch dirty-tracking bypasses: on the fast path every byte outside
   [dst]'s dirty range is supposed to already equal [src]'s — a mismatch
   means someone wrote through [unsafe_bytes] (or otherwise around
   {!mark}), which the fast path would silently fail to restore. *)
let check_shadow_integrity ~src ~dst =
  let n = Bytes.length dst.data in
  let lo = min dst.dirty_lo n and hi = max dst.dirty_hi 0 in
  let check i =
    if not (Char.equal (Bytes.get dst.data i) (Bytes.get src.data i)) then
      failwith
        (Printf.sprintf
           "Memory.restore_from: byte at offset %d differs from the restore \
            source outside the dirty range [%d,%d) — the arena was mutated \
            without dirty tracking (direct unsafe_bytes write?)"
           i lo hi)
  in
  for i = 0 to lo - 1 do
    check i
  done;
  for i = hi to n - 1 do
    check i
  done

let restore_from ~src ~dst =
  if Bytes.length src.data <> Bytes.length dst.data then
    invalid_arg "Memory.restore_from: size mismatch";
  let fast =
    is_clean src
    && (match dst.shadow with
        | Some s -> s == src.data
        | None -> false)
  in
  if fast then begin
    if !integrity_checks then check_shadow_integrity ~src ~dst;
    if dst.dirty_lo < dst.dirty_hi then
      Bytes.blit src.data dst.dirty_lo dst.data dst.dirty_lo
        (dst.dirty_hi - dst.dirty_lo);
    dst.dirty_lo <- clean_lo;
    dst.dirty_hi <- 0
  end
  else blit_from ~src ~dst

(* One unsigned comparison covers both bounds: a negative [off] (address
   below base, or so far above that the subtraction wrapped) is a huge
   unsigned value, and comparing against [size - n] instead of adding [n]
   to [off] cannot overflow. *)
let offset t addr n =
  let off = Int64.sub addr t.base in
  let lim = size t - n in
  if lim >= 0 && Int64.unsigned_compare off (Int64.of_int lim) <= 0 then
    Some (Int64.to_int off)
  else None

(* Same bounds check, raising instead of boxing an option: the compiled
   engine's accesses go through here. *)
let offset_exn t addr n =
  let off = Int64.sub addr t.base in
  let lim = size t - n in
  if lim >= 0 && Int64.unsigned_compare off (Int64.of_int lim) <= 0 then
    Int64.to_int off
  else raise (Fault_exn (Out_of_bounds addr))

(* Little-endian load/store at a validated offset.  The 4- and 8-byte
   widths — every FP access — go through Bytes.get/set_int*_le instead of
   a byte-at-a-time loop. *)
let load t off n =
  if n = 8 then Bytes.get_int64_le t.data off
  else if n = 4 then
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data off)) 0xffff_ffffL
  else begin
    let v = ref 0L in
    for i = n - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (Char.code (Bytes.get t.data (off + i))))
    done;
    !v
  end

let store t off n v =
  if n = 8 then Bytes.set_int64_le t.data off v
  else if n = 4 then Bytes.set_int32_le t.data off (Int64.to_int32 v)
  else
    for i = 0 to n - 1 do
      let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
      Bytes.set t.data (off + i) (Char.chr b)
    done;
  mark t off n

let read t addr n =
  if n < 1 || n > 8 then invalid_arg "Memory.read: bad width";
  match offset t addr n with
  | None -> Error (Out_of_bounds addr)
  | Some off -> Ok (load t off n)

let write t addr n v =
  if n < 1 || n > 8 then invalid_arg "Memory.write: bad width";
  match offset t addr n with
  | None -> Error (Out_of_bounds addr)
  | Some off ->
    store t off n v;
    Ok ()

let read_exn t addr n = load t (offset_exn t addr n) n

let write_exn t addr n v = store t (offset_exn t addr n) n v

let read128 ?(aligned = false) t addr =
  if aligned && Int64.compare (Int64.rem addr 16L) 0L <> 0 then
    Error (Misaligned addr)
  else
    match read t addr 8 with
    | Error _ as e -> Result.map (fun _ -> (0L, 0L)) e
    | Ok lo ->
      (match read t (Int64.add addr 8L) 8 with
       | Error f -> Error f
       | Ok hi -> Ok (lo, hi))

let write128 ?(aligned = false) t addr (lo, hi) =
  if aligned && Int64.compare (Int64.rem addr 16L) 0L <> 0 then
    Error (Misaligned addr)
  else
    match write t addr 8 lo with
    | Error _ as e -> e
    | Ok () -> write t (Int64.add addr 8L) 8 hi

let read128_exn ?(aligned = false) t addr =
  if aligned && Int64.compare (Int64.rem addr 16L) 0L <> 0 then
    raise (Fault_exn (Misaligned addr))
  else begin
    let lo = read_exn t addr 8 in
    let hi = read_exn t (Int64.add addr 8L) 8 in
    (lo, hi)
  end

let write128_exn ?(aligned = false) t addr (lo, hi) =
  if aligned && Int64.compare (Int64.rem addr 16L) 0L <> 0 then
    raise (Fault_exn (Misaligned addr))
  else begin
    write_exn t addr 8 lo;
    write_exn t (Int64.add addr 8L) 8 hi
  end

let set_bytes t addr s =
  let n = String.length s in
  let off =
    try offset_exn t addr n
    with Fault_exn _ -> invalid_arg "Memory.set_bytes: out of range"
  in
  Bytes.blit_string s 0 t.data off n;
  mark t off n

let unsafe_bytes t = t.data

let equal a b = Int64.equal a.base b.base && Bytes.equal a.data b.data

let fault_to_string = function
  | Out_of_bounds a -> Printf.sprintf "out-of-bounds access at 0x%Lx" a
  | Misaligned a -> Printf.sprintf "misaligned access at 0x%Lx" a

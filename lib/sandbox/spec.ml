type frange = {
  lo : float;
  hi : float;
}

type float_input =
  | Fin_xmm_f64 of Reg.xmm * frange
  | Fin_xmm_f32 of Reg.xmm * frange
  | Fin_xmm_f32_hi of Reg.xmm * frange
  | Fin_mem_f32 of int64 * frange
  | Fin_mem_f64 of int64 * frange

type fixed_input =
  | Fix_gp of Reg.gp * int64
  | Fix_mem of int64 * string

type output =
  | Out_xmm_f64 of Reg.xmm
  | Out_xmm_f32 of Reg.xmm
  | Out_xmm_f32_hi of Reg.xmm
  | Out_gp of Reg.gp

type t = {
  name : string;
  program : Program.t;
  float_inputs : float_input list;
  fixed_inputs : fixed_input list;
  outputs : output list;
  mem_size : int;
}

let make ~name ~program ?(float_inputs = []) ?(fixed_inputs = []) ~outputs
    ?(mem_size = 4096) () =
  { name; program; float_inputs; fixed_inputs; outputs; mem_size }

let arity t = List.length t.float_inputs

let range_of = function
  | Fin_xmm_f64 (_, r)
  | Fin_xmm_f32 (_, r)
  | Fin_xmm_f32_hi (_, r)
  | Fin_mem_f32 (_, r)
  | Fin_mem_f64 (_, r) ->
    r

let input_ranges t = Array.of_list (List.map range_of t.float_inputs)

(* The fixed inputs go on last, so {!Testcase.apply} installs them before
   any float input. *)
let with_fixed t tc =
  List.fold_left
    (fun tc fixed ->
      match fixed with
      | Fix_gp (r, v) -> Testcase.with_gp r v tc
      | Fix_mem (addr, s) -> Testcase.with_mem addr s tc)
    tc t.fixed_inputs

(* The input layout below — the f32/f32_hi merges, the shadowing of an
   f64 and everything after it on an already-set register, and the
   first of two overlapping memory inputs winning — is mirrored by
   {!install_plan}; test_sandbox checks the two install equal states. *)
let testcase_of_floats t xs =
  if Array.length xs <> arity t then
    invalid_arg "Spec.testcase_of_floats: arity mismatch";
  let tc = ref Testcase.empty in
  List.iteri
    (fun idx input ->
      let x = xs.(idx) in
      match input with
      | Fin_xmm_f64 (r, _) -> tc := Testcase.with_f64 r x !tc
      | Fin_xmm_f32 (r, _) ->
        (* Preserve a previously-set high dword (f32 pair inputs). *)
        let existing =
          List.assoc_opt r !tc.Testcase.xmms
        in
        (match existing with
         | Some (lo, hi) ->
           let bits = Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xffff_ffffL in
           let lo' = Int64.logor (Int64.logand lo 0xffff_ffff_0000_0000L) bits in
           tc :=
             { !tc with
               Testcase.xmms =
                 (r, (lo', hi)) :: List.remove_assoc r !tc.Testcase.xmms
             }
         | None -> tc := Testcase.with_f32 r x !tc)
      | Fin_xmm_f32_hi (r, _) ->
        let lo0, hi0 =
          match List.assoc_opt r !tc.Testcase.xmms with
          | Some v -> v
          | None -> (0L, 0L)
        in
        let bits = Int64.of_int32 (Int32.bits_of_float x) in
        let lo' =
          Int64.logor
            (Int64.logand lo0 0x0000_0000_ffff_ffffL)
            (Int64.shift_left (Int64.logand bits 0xffff_ffffL) 32)
        in
        tc :=
          { !tc with
            Testcase.xmms = (r, (lo', hi0)) :: List.remove_assoc r !tc.Testcase.xmms
          }
      | Fin_mem_f32 (addr, _) ->
        tc := Testcase.with_mem addr (Testcase.f32_bytes x) !tc
      | Fin_mem_f64 (addr, _) ->
        tc := Testcase.with_mem addr (Testcase.f64_bytes x) !tc)
    t.float_inputs;
  with_fixed t !tc

let fixed_testcase t = with_fixed t Testcase.empty

type slot =
  | Reg64 of int
  | Reg32 of int
  | Mem64 of int
  | Mem32 of int

type install = {
  input : int;
  slot : slot;
}

type install_plan = install array

(* [testcase_of_floats]'s layout as direct stores.  Its testcase sets
   each xmm register once, to the inputs naming it merged in order — an
   f32 into the low dword, an f32_hi into the next — except that an f64
   naming a register some earlier input set is shadowed, and so are all
   later inputs naming it; its memory inputs land in reverse order, so
   the first of two overlapping ones wins. *)
let install_plan t (m : Machine.t) =
  let mem = m.Machine.mem in
  let mem_off addr n =
    (* Memory.set_bytes's bounds check, once *)
    let off = Int64.sub addr (Memory.base mem) in
    let lim = Memory.size mem - n in
    if lim < 0 || Int64.unsigned_compare off (Int64.of_int lim) > 0 then
      invalid_arg "Spec.install_plan: a memory input lies outside the arena";
    Int64.to_int off
  in
  let seen = Array.make 16 `Unset and regs = ref [] and mems = ref [] in
  let reg input r ~f64 slot =
    let i = Reg.xmm_index r in
    match seen.(i) with
    | `Shadowed -> ()
    | `Set when f64 -> seen.(i) <- `Shadowed
    | `Set | `Unset ->
      seen.(i) <- `Set;
      regs := { input; slot } :: !regs
  in
  List.iteri
    (fun input fin ->
      match fin with
      | Fin_xmm_f64 (r, _) -> reg input r ~f64:true (Reg64 (Machine.xmm_offset r))
      | Fin_xmm_f32 (r, _) -> reg input r ~f64:false (Reg32 (Machine.xmm_offset r))
      | Fin_xmm_f32_hi (r, _) -> reg input r ~f64:false (Reg32 (Machine.xmm_offset r + 4))
      | Fin_mem_f64 (addr, _) -> mems := { input; slot = Mem64 (mem_off addr 8) } :: !mems
      | Fin_mem_f32 (addr, _) -> mems := { input; slot = Mem32 (mem_off addr 4) } :: !mems)
    t.float_inputs;
  Array.of_list (List.rev_append !regs !mems)

let install_floats plan (m : Machine.t) xs =
  let regs = m.Machine.regs and mem = m.Machine.mem in
  let data = Memory.unsafe_bytes mem in
  for k = 0 to Array.length plan - 1 do
    let { input; slot } = plan.(k) in
    let x = xs.(input) in
    match slot with
    | Reg64 o -> Bytes.set_int64_le regs o (Int64.bits_of_float x)
    | Reg32 o -> Bytes.set_int32_le regs o (Int32.bits_of_float x)
    | Mem64 o ->
      Bytes.set_int64_le data o (Int64.bits_of_float x);
      Memory.mark mem o 8
    | Mem32 o ->
      Bytes.set_int32_le data o (Int32.bits_of_float x);
      Memory.mark mem o 4
  done

let random_floats g t =
  Array.map (fun r -> Rng.Dist.uniform g r.lo r.hi) (input_ranges t)

let random_testcase g t = testcase_of_floats t (random_floats g t)

let live_out_set t =
  List.fold_left
    (fun acc o ->
      match o with
      | Out_xmm_f64 r | Out_xmm_f32 r | Out_xmm_f32_hi r ->
        Liveness.Locset.add (Liveness.Lxmm r) acc
      | Out_gp r -> Liveness.Locset.add (Liveness.Lgp r) acc)
    Liveness.Locset.empty t.outputs

let live_in_set t =
  let acc =
    List.fold_left
      (fun acc i ->
        match i with
        | Fin_xmm_f64 (r, _) | Fin_xmm_f32 (r, _) | Fin_xmm_f32_hi (r, _) ->
          Liveness.Locset.add (Liveness.Lxmm r) acc
        | Fin_mem_f32 _ | Fin_mem_f64 _ -> Liveness.Locset.add Liveness.Lmem acc)
      Liveness.Locset.empty t.float_inputs
  in
  List.fold_left
    (fun acc i ->
      match i with
      | Fix_gp (r, _) -> Liveness.Locset.add (Liveness.Lgp r) acc
      | Fix_mem _ -> Liveness.Locset.add Liveness.Lmem acc)
    acc t.fixed_inputs

type value =
  | Vf64 of float
  | Vf32 of float
  | Vi64 of int64

let read_outputs t (m : Machine.t) =
  List.map
    (fun o ->
      match o with
      | Out_xmm_f64 r -> Vf64 (Machine.get_f64 m r)
      | Out_xmm_f32 r -> Vf32 (Machine.get_f32 m r)
      | Out_xmm_f32_hi r -> Vf32 (Machine.get_f32_hi m r)
      | Out_gp r -> Vi64 (Machine.get_gp m r))
    t.outputs
  |> Array.of_list

let value_ulp a b =
  match a, b with
  | Vf64 x, Vf64 y -> Fpbits.Ulp.dist64 x y
  | Vf32 x, Vf32 y -> Fpbits.Ulp.dist32 x y
  | Vi64 x, Vi64 y ->
    let d = Int64.sub x y in
    if Int64.compare d 0L >= 0 then d else Int64.neg d
  | (Vf64 _ | Vf32 _ | Vi64 _), _ ->
    invalid_arg "Spec.value_ulp: mismatched value types"

type out_loc =
  | O64 of int
  | O32 of int
  | Ogp of int

let out_loc = function
  | Out_xmm_f64 r -> O64 (Machine.xmm_offset r)
  | Out_xmm_f32 r -> O32 (Machine.xmm_offset r)
  | Out_xmm_f32_hi r -> O32 (Machine.xmm_offset r + 4)
  | Out_gp r -> Ogp (Machine.gp_offset r)

type mem = {
  base : Reg.gp option;
  index : (Reg.gp * int) option;
  disp : int;
}

type t =
  | Gp of Reg.gp
  | Xmm of Reg.xmm
  | Imm of int64
  | Mem of mem

let mem ?index ?(disp = 0) base = Mem { base = Some base; index; disp }

let imm i = Imm (Int64.of_int i)
let imm64 i = Imm i

let equal_mem a b =
  Int.equal a.disp b.disp
  && (match a.base, b.base with
      | None, None -> true
      | Some r1, Some r2 -> Reg.equal_gp r1 r2
      | (None | Some _), _ -> false)
  &&
  match a.index, b.index with
  | None, None -> true
  | Some (r1, s1), Some (r2, s2) -> Reg.equal_gp r1 r2 && Int.equal s1 s2
  | (None | Some _), _ -> false

let equal a b =
  match a, b with
  | Gp r1, Gp r2 -> Reg.equal_gp r1 r2
  | Xmm r1, Xmm r2 -> Reg.equal_xmm r1 r2
  | Imm i1, Imm i2 -> Int64.equal i1 i2
  | Mem m1, Mem m2 -> equal_mem m1 m2
  | (Gp _ | Xmm _ | Imm _ | Mem _), _ -> false

let rank = function
  | Gp _ -> 0
  | Xmm _ -> 1
  | Imm _ -> 2
  | Mem _ -> 3

let compare a b =
  match a, b with
  | Gp r1, Gp r2 -> Reg.compare_gp r1 r2
  | Xmm r1, Xmm r2 -> Reg.compare_xmm r1 r2
  | Imm i1, Imm i2 -> Int64.compare i1 i2
  | Mem m1, Mem m2 ->
    let c =
      compare
        (Option.map Reg.gp_index m1.base, m1.index, m1.disp)
        (Option.map Reg.gp_index m2.base, m2.index, m2.disp)
    in
    c
  | _, _ -> Int.compare (rank a) (rank b)

let mem_to_string m =
  let base = Option.fold ~none:"" ~some:(Reg.gp_name Reg.Q) m.base in
  let index =
    match m.index with
    | None -> ""
    | Some (r, 1) -> "," ^ Reg.gp_name Reg.Q r
    | Some (r, s) -> Printf.sprintf ",%s,%d" (Reg.gp_name Reg.Q r) s
  in
  let disp = if m.disp = 0 then "" else string_of_int m.disp in
  Printf.sprintf "%s(%s%s)" disp base index

let to_string ~w = function
  | Gp r -> Reg.gp_name w r
  | Xmm r -> Reg.xmm_name r
  | Imm i ->
    if Int64.compare (Int64.abs i) 0xffffL > 0 then Printf.sprintf "$0x%Lx" i
    else Printf.sprintf "$%Ld" i
  | Mem m -> mem_to_string m

let pp ~w ppf o = Format.pp_print_string ppf (to_string ~w o)

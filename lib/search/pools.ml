module Xset = Set.Make (struct
  type t = Reg.xmm

  let compare = Reg.compare_xmm
end)

module Gset = Set.Make (struct
  type t = Reg.gp

  let compare = Reg.compare_gp
end)

module I64set = Set.Make (Int64)

type operands = {
  gp32 : Operand.t array;
  gp64 : Operand.t array;
  xmm : Operand.t array;
  imm8 : Operand.t array;
  imm32 : Operand.t array;
  imm64 : Operand.t array;
  mem32 : Operand.t array;
  mem64 : Operand.t array;
  mem128 : Operand.t array;
}

(* The opcode tables depend only on which operand pools are non-empty —
   one bit per kind of [kind_bit] — so they are built once per such mask
   and shared, read-only, by every search on every domain. *)
type opcode_move = {
  shape : Shape.kind array;
  candidates : Opcode.t array;
  self : int;
}

type tables = {
  opcodes : Opcode.t array;  (** opcodes with at least one instantiable shape *)
  op_shapes : Shape.kind array array array;
      (** per [opcodes] entry: its instantiable shapes, in [Shape.shapes]
          order *)
  moves : opcode_move array array;
      (** by [Opcode.index], then by position in [Shape.shapes]: that
          shape, the [opcodes] admitting it and the opcode's index among
          them *)
}

type t = {
  operands : operands;
  tables : tables;
}

let scratch_gps = [ Reg.Rax; Reg.Rcx; Reg.Rdx ]
let scratch_xmms = [ Reg.Xmm0; Reg.Xmm1; Reg.Xmm2; Reg.Xmm3; Reg.Xmm4; Reg.Xmm5 ]

let collect target spec =
  let gps = ref (Gset.of_list scratch_gps) in
  let xmms = ref (Xset.of_list scratch_xmms) in
  let imm8s = ref (I64set.of_list [ 0L; 1L; 2L; 32L; 52L; 63L ]) in
  let imm32s = ref (I64set.of_list [ 0L; 1L; 2L; 1023L ]) in
  let imm64s = ref I64set.empty in
  let mems = ref [] in
  let add_operand o =
    match o with
    | Operand.Gp r -> gps := Gset.add r !gps
    | Operand.Xmm r -> xmms := Xset.add r !xmms
    | Operand.Imm v ->
      if Int64.compare v 0L >= 0 && Int64.compare v 255L <= 0 then
        imm8s := I64set.add v !imm8s;
      if Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0
      then imm32s := I64set.add v !imm32s;
      imm64s := I64set.add v !imm64s
    | Operand.Mem m ->
      Option.iter (fun r -> gps := Gset.add r !gps) m.Operand.base;
      Option.iter (fun (r, _) -> gps := Gset.add r !gps) m.Operand.index;
      if not (List.exists (Operand.equal_mem m) !mems) then mems := m :: !mems
  in
  List.iter
    (fun (i : Instr.t) -> Array.iter add_operand i.Instr.operands)
    (Program.instrs target);
  (* Registers carrying live-in values must be available as operands. *)
  List.iter
    (fun fi ->
      match fi with
      | Sandbox.Spec.Fin_xmm_f64 (r, _)
      | Sandbox.Spec.Fin_xmm_f32 (r, _)
      | Sandbox.Spec.Fin_xmm_f32_hi (r, _) ->
        xmms := Xset.add r !xmms
      | Sandbox.Spec.Fin_mem_f32 _ | Sandbox.Spec.Fin_mem_f64 _ -> ())
    spec.Sandbox.Spec.float_inputs;
  List.iter
    (fun fx ->
      match fx with
      | Sandbox.Spec.Fix_gp (r, _) -> gps := Gset.add r !gps
      | Sandbox.Spec.Fix_mem _ -> ())
    spec.Sandbox.Spec.fixed_inputs;
  (!gps, !xmms, !imm8s, !imm32s, !imm64s, !mems)

let pool (t : operands) (k : Shape.kind) =
  match k with
  | Shape.K_gp Reg.L -> t.gp32
  | Shape.K_gp Reg.Q -> t.gp64
  | Shape.K_xmm -> t.xmm
  | Shape.K_imm8 -> t.imm8
  | Shape.K_imm32 -> t.imm32
  | Shape.K_imm64 -> t.imm64
  | Shape.K_mem Shape.M32 -> t.mem32
  | Shape.K_mem Shape.M64 -> t.mem64
  | Shape.K_mem Shape.M128 -> t.mem128

let kinds =
  [ Shape.K_gp Reg.L; Shape.K_gp Reg.Q; Shape.K_xmm; Shape.K_imm8; Shape.K_imm32;
    Shape.K_imm64; Shape.K_mem Shape.M32; Shape.K_mem Shape.M64;
    Shape.K_mem Shape.M128 ]

let kind_bit (k : Shape.kind) =
  match k with
  | Shape.K_gp Reg.L -> 1
  | Shape.K_gp Reg.Q -> 2
  | Shape.K_xmm -> 4
  | Shape.K_imm8 -> 8
  | Shape.K_imm32 -> 16
  | Shape.K_imm64 -> 32
  | Shape.K_mem Shape.M32 -> 64
  | Shape.K_mem Shape.M64 -> 128
  | Shape.K_mem Shape.M128 -> 256

let availability operands =
  List.fold_left
    (fun mask k -> if Array.length (pool operands k) > 0 then mask lor kind_bit k else mask)
    0 kinds

let build mask =
  let instantiable shape = Array.for_all (fun k -> mask land kind_bit k <> 0) shape in
  let candidates =
    List.filter_map
      (fun op ->
        match List.filter instantiable (Shape.shapes op) with
        | [] -> None
        | shapes -> Some (op, Array.of_list shapes))
      Opcode.all
  in
  let opcodes = Array.of_list (List.map fst candidates) in
  (* reversed candidate lists while building *)
  let rev_by_shape = Hashtbl.create 64 in
  Array.iter
    (fun op ->
      List.iter
        (fun shape ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt rev_by_shape shape)
          in
          if not (List.exists (Opcode.equal op) prev) then
            Hashtbl.replace rev_by_shape shape (op :: prev))
        (Shape.shapes op))
    opcodes;
  let by_shape = Hashtbl.create (Hashtbl.length rev_by_shape) in
  Hashtbl.iter
    (fun shape ops -> Hashtbl.replace by_shape shape (Array.of_list (List.rev ops)))
    rev_by_shape;
  let moves = Array.make Opcode.count [||] in
  List.iter
    (fun op ->
      moves.(Opcode.index op) <-
        Array.of_list
          (List.map
             (fun shape ->
               let candidates =
                 Option.value ~default:[||] (Hashtbl.find_opt by_shape shape)
               in
               let self = ref (-1) in
               Array.iteri
                 (fun k c -> if Opcode.equal c op then self := k)
                 candidates;
               { shape; candidates; self = !self })
             (Shape.shapes op)))
    Opcode.all;
  { opcodes; op_shapes = Array.of_list (List.map snd candidates); moves }

(* The masks built so far; a search meets one or two.  Two domains that
   miss the same mask at once both build it, alike. *)
let built : (int * tables) list Atomic.t = Atomic.make []

let tables mask =
  match List.assq_opt mask (Atomic.get built) with
  | Some t -> t
  | None ->
    let t = build mask in
    let rec publish () =
      let seen = Atomic.get built in
      if not (Atomic.compare_and_set built seen ((mask, t) :: seen)) then publish ()
    in
    publish ();
    t

let make ~target ~spec =
  let gps, xmms, imm8s, imm32s, imm64s, mems = collect target spec in
  let gp_ops = Gset.elements gps |> List.map (fun r -> Operand.Gp r) in
  let operands =
    {
      gp32 = Array.of_list gp_ops;
      gp64 = Array.of_list gp_ops;
      xmm = Array.of_list (Xset.elements xmms |> List.map (fun r -> Operand.Xmm r));
      imm8 = Array.of_list (I64set.elements imm8s |> List.map (fun v -> Operand.Imm v));
      imm32 =
        Array.of_list (I64set.elements imm32s |> List.map (fun v -> Operand.Imm v));
      imm64 =
        Array.of_list
          ((I64set.elements imm64s |> List.map (fun v -> Operand.Imm v))
          @ [ Operand.Imm 0L ]);
      mem32 = Array.of_list (List.map (fun m -> Operand.Mem m) mems);
      mem64 = Array.of_list (List.map (fun m -> Operand.Mem m) mems);
      mem128 = Array.of_list (List.map (fun m -> Operand.Mem m) mems);
    }
  in
  (* Every pool operand inhabits its kind, so a move that puts one in a
     position of that kind, or an opcode admitting the shape, keeps an
     instruction well formed with no check per move. *)
  List.iter
    (fun k ->
      Array.iter
        (fun o ->
          if not (Shape.kind_matches k o) then
            invalid_arg
              (Printf.sprintf "Pools.make: %s in the %s pool"
                 (Operand.to_string ~w:Reg.Q o) (Shape.kind_to_string k)))
        (pool operands k))
    kinds;
  { operands; tables = tables (availability operands) }

let operands_of_kind t k = pool t.operands k

let opcode_move t op k = t.tables.moves.(Opcode.index op).(k)

let all_opcodes t = t.tables.opcodes

(* A loop, not [Array.map] and its closure; the draws run in operand
   order. *)
let random_instr g t =
  let k = Rng.Dist.int g (Array.length t.tables.opcodes) in
  let op = t.tables.opcodes.(k) in
  let shape = Rng.Dist.choose g t.tables.op_shapes.(k) in
  let n = Array.length shape in
  let operands =
    if n = 0 then [||]
    else begin
      let a = Array.make n (Rng.Dist.choose g (operands_of_kind t shape.(0))) in
      for j = 1 to n - 1 do
        a.(j) <- Rng.Dist.choose g (operands_of_kind t shape.(j))
      done;
      a
    end
  in
  Instr.make_unchecked op operands

type assignment = Shape.kind array -> Operand.t array list

let instances (assign : assignment) =
  List.concat_map
    (fun op ->
      List.concat_map
        (fun shape ->
          List.filter_map
            (fun operands ->
              let i = Instr.make_unchecked op operands in
              if Instr.is_well_formed i then Some i else None)
            (assign shape))
        (Shape.shapes op))
    Opcode.all

let mem ?index base disp = Operand.Mem { Operand.base = Some base; index; disp }
let one = 0x3ff0_0000_0000_0000L

(* One instance per shape: a register operand at position [pos] of [n]
   takes register [slot ~n pos] of its class's pool. *)
let single ~slot ~gp ~xmm ~imm8 ~imm32 ~imm64 ~mem shape =
  let n = Array.length shape in
  [ Array.mapi
      (fun pos (k : Shape.kind) ->
        match k with
        | Shape.K_gp _ -> Operand.Gp gp.(slot ~n pos)
        | Shape.K_xmm -> Operand.Xmm xmm.(slot ~n pos)
        | Shape.K_imm8 -> Operand.Imm imm8
        | Shape.K_imm32 -> Operand.Imm imm32
        | Shape.K_imm64 -> Operand.Imm imm64
        | Shape.K_mem _ -> mem)
      shape ]

let aliased =
  single ~slot:(fun ~n:_ _ -> 0) ~gp:[| Reg.Rcx |] ~xmm:[| Reg.Xmm1 |] ~imm8:3L
    ~imm32:1000L ~imm64:one ~mem:(mem Reg.Rdi 16)

let distinct ?(imm8 = 3L) ?(imm32 = 1000L) () =
  single
    ~slot:(fun ~n pos -> if pos = n - 1 then 0 else pos + 1)
    ~gp:[| Reg.Rcx; Reg.Rdx; Reg.Rbx |] ~xmm:[| Reg.Xmm1; Reg.Xmm2; Reg.Xmm3 |]
    ~imm8 ~imm32 ~imm64:one ~mem:(mem Reg.Rdi 16)

let extended =
  single ~slot:(fun ~n:_ _ -> 0) ~gp:[| Reg.R9 |] ~xmm:[| Reg.Xmm9 |] ~imm8:5L
    ~imm32:(-7L) ~imm64:(-1L) ~mem:(mem ~index:(Reg.R9, 4) Reg.R8 (-24))

let imms = List.map (fun v -> Operand.Imm v)

let rex_vex shape =
  let candidates (k : Shape.kind) =
    match k with
    | Shape.K_gp _ -> [ Operand.Gp Reg.Rcx; Operand.Gp Reg.R9; Operand.Gp Reg.Rsp ]
    | Shape.K_xmm -> [ Operand.Xmm Reg.Xmm1; Operand.Xmm Reg.Xmm12 ]
    | Shape.K_imm8 -> imms [ 3L; 63L ]
    | Shape.K_imm32 -> imms [ 1000L; 7L ]
    | Shape.K_imm64 -> imms [ one ]
    | Shape.K_mem _ ->
      [ mem Reg.Rdi 16; mem Reg.Rsp (-24); mem ~index:(Reg.R9, 4) Reg.R13 (-8) ]
  in
  Array.fold_right
    (fun k tails ->
      List.concat_map (fun v -> List.map (fun t -> v :: t) tails) (candidates k))
    shape [ [] ]
  |> List.map Array.of_list

let taint shape =
  let gp_pool = [| Reg.Rax; Reg.Rcx; Reg.Rdx; Reg.Rbx |] in
  let xmm_pool = [| Reg.Xmm0; Reg.Xmm1; Reg.Xmm2; Reg.Xmm3; Reg.Xmm4; Reg.Xmm5 |] in
  (* 0 and 32 catch count-masking flag behaviour; 63 the Q-width extreme.
     rsi and rdi are the oracle's pinned pointer and index. *)
  let candidates ~aliased pos (k : Shape.kind) =
    match k with
    | Shape.K_gp _ ->
      [ Operand.Gp (if aliased then Reg.Rax else gp_pool.(pos mod Array.length gp_pool)) ]
    | Shape.K_xmm ->
      [ Operand.Xmm (if aliased then Reg.Xmm1 else xmm_pool.(pos mod Array.length xmm_pool)) ]
    | Shape.K_imm8 -> imms [ 0L; 1L; 3L; 32L; 63L ]
    | Shape.K_imm32 -> imms [ 0L; 1L; 1023L ]
    | Shape.K_imm64 -> imms [ 0L; 1L; Int64.min_int ]
    | Shape.K_mem _ -> [ mem Reg.Rsi 16; mem ~index:(Reg.Rdi, 8) Reg.Rsi 8 ]
  in
  let sweep ~aliased =
    let columns = Array.mapi (candidates ~aliased) shape in
    let variants = Array.fold_left (fun n c -> Int.max n (List.length c)) 1 columns in
    List.init variants (fun v ->
        Array.map (fun c -> List.nth c (v mod List.length c)) columns)
  in
  let count p = Array.fold_left (fun n k -> if p k then n + 1 else n) 0 shape in
  let can_alias =
    count (function Shape.K_gp _ -> true | _ -> false) >= 2
    || count (function Shape.K_xmm -> true | _ -> false) >= 2
  in
  sweep ~aliased:false @ if can_alias then sweep ~aliased:true else []

type gp =
  | Rax
  | Rcx
  | Rdx
  | Rbx
  | Rsp
  | Rbp
  | Rsi
  | Rdi
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

type xmm =
  | Xmm0
  | Xmm1
  | Xmm2
  | Xmm3
  | Xmm4
  | Xmm5
  | Xmm6
  | Xmm7
  | Xmm8
  | Xmm9
  | Xmm10
  | Xmm11
  | Xmm12
  | Xmm13
  | Xmm14
  | Xmm15

type w = L | Q

let gp_index = function
  | Rax -> 0
  | Rcx -> 1
  | Rdx -> 2
  | Rbx -> 3
  | Rsp -> 4
  | Rbp -> 5
  | Rsi -> 6
  | Rdi -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let xmm_index = function
  | Xmm0 -> 0
  | Xmm1 -> 1
  | Xmm2 -> 2
  | Xmm3 -> 3
  | Xmm4 -> 4
  | Xmm5 -> 5
  | Xmm6 -> 6
  | Xmm7 -> 7
  | Xmm8 -> 8
  | Xmm9 -> 9
  | Xmm10 -> 10
  | Xmm11 -> 11
  | Xmm12 -> 12
  | Xmm13 -> 13
  | Xmm14 -> 14
  | Xmm15 -> 15

let all_gp =
  [ Rax; Rcx; Rdx; Rbx; Rsp; Rbp; Rsi; Rdi; R8; R9; R10; R11; R12; R13; R14; R15 ]

let all_xmm =
  [ Xmm0; Xmm1; Xmm2; Xmm3; Xmm4; Xmm5; Xmm6; Xmm7;
    Xmm8; Xmm9; Xmm10; Xmm11; Xmm12; Xmm13; Xmm14; Xmm15 ]

let gp_of_index i =
  match List.nth_opt all_gp i with
  | Some r -> r
  | None -> invalid_arg "Reg.gp_of_index"

let xmm_of_index i =
  match List.nth_opt all_xmm i with
  | Some r -> r
  | None -> invalid_arg "Reg.xmm_of_index"

let gp_name64 = function
  | Rax -> "rax"
  | Rcx -> "rcx"
  | Rdx -> "rdx"
  | Rbx -> "rbx"
  | Rsp -> "rsp"
  | Rbp -> "rbp"
  | Rsi -> "rsi"
  | Rdi -> "rdi"
  | R8 -> "r8"
  | R9 -> "r9"
  | R10 -> "r10"
  | R11 -> "r11"
  | R12 -> "r12"
  | R13 -> "r13"
  | R14 -> "r14"
  | R15 -> "r15"

let gp_name32 = function
  | Rax -> "eax"
  | Rcx -> "ecx"
  | Rdx -> "edx"
  | Rbx -> "ebx"
  | Rsp -> "esp"
  | Rbp -> "ebp"
  | Rsi -> "esi"
  | Rdi -> "edi"
  | R8 -> "r8d"
  | R9 -> "r9d"
  | R10 -> "r10d"
  | R11 -> "r11d"
  | R12 -> "r12d"
  | R13 -> "r13d"
  | R14 -> "r14d"
  | R15 -> "r15d"

let gp_name8 = function
  | Rax -> "al"
  | Rcx -> "cl"
  | Rdx -> "dl"
  | Rbx -> "bl"
  | Rsp -> "spl"
  | Rbp -> "bpl"
  | Rsi -> "sil"
  | Rdi -> "dil"
  | R8 -> "r8b"
  | R9 -> "r9b"
  | R10 -> "r10b"
  | R11 -> "r11b"
  | R12 -> "r12b"
  | R13 -> "r13b"
  | R14 -> "r14b"
  | R15 -> "r15b"

let gp_name w r =
  match w with
  | Q -> gp_name64 r
  | L -> gp_name32 r

let xmm_name r = Printf.sprintf "xmm%d" (xmm_index r)

let gp_of_name s =
  let find name_of w =
    List.find_opt (fun r -> String.equal (name_of r) s) all_gp
    |> Option.map (fun r -> (w, r))
  in
  match find gp_name64 Q with
  | Some _ as found -> found
  | None -> find gp_name32 L

let gp8_of_name s = List.find_opt (fun r -> String.equal (gp_name8 r) s) all_gp

let xmm_of_name s =
  List.find_opt (fun r -> String.equal (xmm_name r) s) all_xmm

let compare_gp a b = Int.compare (gp_index a) (gp_index b)
let compare_xmm a b = Int.compare (xmm_index a) (xmm_index b)
(* constant constructors: equal exactly when physically equal *)
let equal_gp (a : gp) b = a == b
let equal_xmm (a : xmm) b = a == b

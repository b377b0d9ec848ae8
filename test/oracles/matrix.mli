(** The opcode × shape instance matrix: every catalogued shape of every
    opcode ([Opcode.all] × [Shape.shapes]), instantiated with concrete
    operands by an {!assignment} and filtered by [Instr.is_well_formed].
    Every test that sweeps the instruction set draws its instances here;
    the assignments below are the operand choices those tests use. *)

type assignment = Shape.kind array -> Operand.t array list
(** The operand vectors one shape is instantiated with, in order. *)

val instances : assignment -> Instr.t list
(** In [Opcode.all] order, then [Shape.shapes] order, then the
    assignment's; ill-formed instances are dropped. *)

val aliased : assignment
(** One instance per shape, every register operand rcx / xmm1 (so a
    reg-reg form reads what it writes), imm8 3, imm32 1000, imm64 the
    bits of 1.0, memory 16(rdi). *)

val distinct : ?imm8:int64 -> ?imm32:int64 -> unit -> assignment
(** As {!aliased} (same immediate defaults), but the destination (last
    operand) is rcx / xmm1 and the sources rdx / xmm2, then rbx / xmm3. *)

val extended : assignment
(** One instance per shape whose registers all need a REX or VEX
    extension bit: r9 / xmm9, imm8 5, imm32 -7, imm64 -1, memory
    -24(r8,r9,4). *)

val rex_vex : assignment
(** Every combination, position by position, of rcx / r9 / rsp,
    xmm1 / xmm12, imm8 3 / 63, imm32 1000 / 7, imm64 the bits of 1.0 and
    memory 16(rdi) / -24(rsp) / -8(r13,r9,4): the REX and VEX extension
    bits, SIB scaling and negative displacements. *)

val taint : assignment
(** The taint oracle's sweep: variant [k] takes the [k]th (cyclically) of
    imm8 0 / 1 / 3 / 32 / 63, imm32 0 / 1 / 1023, imm64 0 / 1 / min_int
    and memory 16(rsi) / 8(rsi,rdi,8), for as many variants as the longest
    list a position has.  Registers are rax, rcx, rdx, rbx and xmm0–xmm5
    by position; a shape with two registers of one class is swept again
    with every register rax / xmm1. *)

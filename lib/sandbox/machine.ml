type flags = {
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  mutable pf : bool;
}

type t = {
  regs : Bytes.t;
  flags : flags;
  mem : Memory.t;
}

let regs_size = 0x180
let xmm_base = 0x80
let gp_offset r = 8 * Reg.gp_index r
let xmm_offset r = xmm_base + (16 * Reg.xmm_index r)

let default_rsp t =
  Int64.add (Memory.base t.mem) (Int64.of_int (Memory.size t.mem / 2))

let create ?(mem_size = 4096) () =
  let t =
    {
      regs = Bytes.make regs_size '\000';
      flags = { cf = false; zf = false; sf = false; o_f = false; pf = false };
      mem = Memory.create mem_size;
    }
  in
  Bytes.set_int64_le t.regs (gp_offset Reg.Rsp) (default_rsp t);
  t

let copy t =
  {
    regs = Bytes.copy t.regs;
    flags = { t.flags with cf = t.flags.cf };
    mem = Memory.copy t.mem;
  }

let restore_from ~src ~dst =
  Bytes.blit src.regs 0 dst.regs 0 regs_size;
  dst.flags.cf <- src.flags.cf;
  dst.flags.zf <- src.flags.zf;
  dst.flags.sf <- src.flags.sf;
  dst.flags.o_f <- src.flags.o_f;
  dst.flags.pf <- src.flags.pf;
  Memory.restore_from ~src:src.mem ~dst:dst.mem

let get_gp t r = Bytes.get_int64_le t.regs (gp_offset r)
let set_gp t r v = Bytes.set_int64_le t.regs (gp_offset r) v

let get_gp32 t r = Int64.logand (get_gp t r) 0xffff_ffffL
let set_gp32 t r v = set_gp t r (Int64.logand v 0xffff_ffffL)

let get_xmm t r =
  let o = xmm_offset r in
  (Bytes.get_int64_le t.regs o, Bytes.get_int64_le t.regs (o + 8))

let set_xmm t r (lo, hi) =
  let o = xmm_offset r in
  Bytes.set_int64_le t.regs o lo;
  Bytes.set_int64_le t.regs (o + 8) hi

let get_xmm_lo t r = Bytes.get_int64_le t.regs (xmm_offset r)
let set_xmm_lo t r v = Bytes.set_int64_le t.regs (xmm_offset r) v

let get_f64 t r = Int64.float_of_bits (get_xmm_lo t r)
let set_f64 t r v = set_xmm_lo t r (Int64.bits_of_float v)

let get_f32 t r =
  Int32.float_of_bits (Int64.to_int32 (get_xmm_lo t r))

let set_f32 t r v =
  let bits32 = Int64.of_int32 (Int32.bits_of_float v) in
  let lo = get_xmm_lo t r in
  set_xmm_lo t r
    (Int64.logor
       (Int64.logand lo 0xffff_ffff_0000_0000L)
       (Int64.logand bits32 0xffff_ffffL))

let get_f32_hi t r =
  Int32.float_of_bits (Int64.to_int32 (Int64.shift_right_logical (get_xmm_lo t r) 32))

let now_ns : unit -> int64 = Monotonic_clock.now

let elapsed_s ~since =
  Int64.to_float (Int64.sub (now_ns ()) since) *. 1e-9

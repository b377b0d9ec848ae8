type config = {
  max_depth : int;
  max_boxes : int;
  timeout_s : float;
}

let default_config = { max_depth = 10; max_boxes = 2000; timeout_s = 0.5 }

type stats = {
  boxes_explored : int;
  depth : int;
}

(* A work item: a sub-box, its depth, and the objective's upper bound on
   it (clamped to its parent's bound, so the per-box bounds are monotone
   along every split path even if interval evaluation is noisy).  [seq]
   numbers items in insertion order. *)
type item = {
  ub : float;
  seq : int;
  depth_ : int;
  box_ : Interval.itv array;
}

let widest_dim box =
  let best = ref (-1) in
  let best_w = ref 0. in
  Array.iteri
    (fun k (i : Interval.itv) ->
      let w = Interval.width i in
      if Float.is_finite w && w > !best_w then begin
        best := k;
        best_w := w
      end)
    box;
  !best

let midpoint (i : Interval.itv) =
  let m = (i.Interval.lo +. i.Interval.hi) /. 2. in
  if Float.is_finite m then m else Stdlib.max i.Interval.lo (Stdlib.min i.Interval.hi 0.)

let split box k =
  let i = box.(k) in
  let m = midpoint i in
  if not (m > i.Interval.lo && m < i.Interval.hi) then None
  else begin
    let left = Array.copy box and right = Array.copy box in
    left.(k) <- Interval.make i.Interval.lo m;
    right.(k) <- Interval.make m i.Interval.hi;
    Some (left, right)
  end

let point_box box = Array.map (fun i -> let m = midpoint i in Interval.make m m) box

(* Worst-first queue: a binary max-heap on ub, ties broken by insertion
   order (earlier first), so boxes pop in the order a list kept sorted by
   descending ub, each inserted after its equals, would give them. *)
type heap = {
  mutable items : item array;
  mutable size : int;
  mutable next_seq : int;
}

let before a b = a.ub > b.ub || (a.ub = b.ub && a.seq < b.seq)

let swap h i j =
  let x = h.items.(i) in
  h.items.(i) <- h.items.(j);
  h.items.(j) <- x

let push h ~ub ~depth box =
  let it = { ub; seq = h.next_seq; depth_ = depth; box_ = box } in
  h.next_seq <- h.next_seq + 1;
  if h.size = Array.length h.items then begin
    let bigger = Array.make (2 * h.size + 1) it in
    Array.blit h.items 0 bigger 0 h.size;
    h.items <- bigger
  end;
  h.items.(h.size) <- it;
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && before h.items.(!i) h.items.((!i - 1) / 2) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(* Remove the top item (the caller has read it from [items.(0)]). *)
let drop_top h =
  h.size <- h.size - 1;
  h.items.(0) <- h.items.(h.size);
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let m = ref !i in
    if l < h.size && before h.items.(l) h.items.(!m) then m := l;
    if r < h.size && before h.items.(r) h.items.(!m) then m := r;
    if !m = !i then continue := false
    else begin
      swap h !i !m;
      i := !m
    end
  done

let sanitize v = if Float.is_nan v then Float.infinity else v

let maximize cfg ~f ~box =
  let started = Sys.time () in
  let evals = ref 0 in
  let max_depth_seen = ref 0 in
  let eval b =
    incr evals;
    sanitize (f b)
  in
  (* Certified lower bound: the objective at a degenerate midpoint box is
     an upper bound of the supremum over a single point, hence a lower
     bound of the supremum over any box containing that point. *)
  let lower = ref Float.neg_infinity in
  let observe_center b =
    let v = eval (point_box b) in
    if v > !lower && Float.is_finite v then lower := v
  in
  let root_ub = eval box in
  if Array.length box = 0 || cfg.max_depth <= 0 then (root_ub, { boxes_explored = !evals; depth = 0 })
  else begin
    observe_center box;
    (* [settled] holds the bounds of boxes we will not split further;
       the final answer is max(settled, remaining queue). *)
    let settled = ref Float.neg_infinity in
    let settle v = if v > !settled then settled := v in
    let out_of_budget () =
      !evals >= cfg.max_boxes
      || (cfg.timeout_s > 0. && Sys.time () -. started > cfg.timeout_s)
    in
    let queue = { items = [||]; size = 0; next_seq = 0 } in
    push queue ~ub:root_ub ~depth:0 box;
    let rec loop () =
      if queue.size = 0 then !settled
      else begin
        let worst = queue.items.(0) in
        if out_of_budget () then begin
          let acc = ref !settled in
          for i = 0 to queue.size - 1 do
            acc := Stdlib.max !acc queue.items.(i).ub
          done;
          !acc
        end
        else if worst.ub <= !lower then begin
          (* No box can beat the certified lower bound: the supremum is
             exactly [lower] up to the evaluation slack already inside
             these upper bounds. *)
          for i = 0 to queue.size - 1 do
            settle queue.items.(i).ub
          done;
          !settled
        end
        else begin
          drop_top queue;
          (if worst.depth_ >= cfg.max_depth then settle worst.ub
           else
             let k = widest_dim worst.box_ in
             if k < 0 then settle worst.ub
             else
               match split worst.box_ k with
               | None -> settle worst.ub
               | Some (left, right) ->
                 let d = worst.depth_ + 1 in
                 if d > !max_depth_seen then max_depth_seen := d;
                 (* Clamping to the parent's bound keeps subdivision
                    monotone: a child can only tighten. *)
                 let l_ub = Stdlib.min (eval left) worst.ub in
                 let r_ub = Stdlib.min (eval right) worst.ub in
                 observe_center left;
                 observe_center right;
                 push queue ~ub:r_ub ~depth:d right;
                 push queue ~ub:l_ub ~depth:d left);
          loop ()
        end
      end
    in
    let sup = loop () in
    (* Never report worse than the root evaluation, and never better than
       what subdivision actually certified. *)
    (Stdlib.min sup root_ub, { boxes_explored = !evals; depth = !max_depth_seen })
  end

(** Open-addressing fragment index — see the interface for the design.

    Layout: a power-of-two array of per-tag entries, Fibonacci-hashed
    key, linear probing.  An array cell is either [Empty] or an
    [entry]; a probe can stop at the first [Empty] both for lookups and
    inserts because {!delete} removes keys by backward-shifting the
    probe chain closed (no tombstones, so chains never accumulate dead
    cells).  Fragment slots are valid only while [entry.fgen] equals
    the table's generation; {!flush_fragments} bumps the generation,
    invalidating every slot at once without walking the table. *)

include Fragindex_t

type 'a cell = Empty | Entry of 'a entry

type 'a t = {
  mutable cells : 'a cell array;
  mutable mask : int;          (* capacity - 1; capacity is a power of two *)
  mutable count : int;         (* live keys *)
  mutable gen : int;           (* fragment-slot generation *)
}

let create ?(bits = 9) () =
  let cap = 1 lsl bits in
  { cells = Array.make cap Empty; mask = cap - 1; count = 0; gen = 0 }

(* Fibonacci hashing: tags are small word-aligned-ish addresses whose
   low bits carry little entropy; the golden-ratio multiply spreads
   them across the table before masking. *)
let[@inline] slot_of t tag = (tag * 0x2545F4914F6CDD1D) lsr 16 land t.mask

(* Lazily reset fragment slots left over from a pre-flush generation. *)
let[@inline] normalize t (e : 'a entry) =
  if e.fgen <> t.gen then begin
    e.fgen <- t.gen;
    e.bb <- None;
    e.trace <- None;
    e.ibl <- None
  end

let rec probe t tag i =
  match t.cells.(i) with
  | Empty -> None
  | Entry e when e.key = tag ->
      normalize t e;
      Some e
  | Entry _ -> probe t tag ((i + 1) land t.mask)

let find t tag = probe t tag (slot_of t tag)

let grow t =
  let old = t.cells in
  let cap = (t.mask + 1) * 2 in
  t.cells <- Array.make cap Empty;
  t.mask <- cap - 1;
  Array.iter
    (fun c ->
      match c with
      | Empty -> ()
      | Entry e ->
          let rec place i =
            match t.cells.(i) with
            | Empty -> t.cells.(i) <- c
            | Entry _ -> place ((i + 1) land t.mask)
          in
          place (slot_of t e.key))
    old

let ensure t tag =
  let rec go i =
    match t.cells.(i) with
    | Empty ->
        let e =
          { key = tag; fgen = t.gen; bb = None; trace = None; ibl = None;
            head = -1; marked = false; prof = None; head_cycles = 0;
            nospec = false }
        in
        t.cells.(i) <- Entry e;
        t.count <- t.count + 1;
        if t.count * 4 > (t.mask + 1) * 3 then grow t;
        e
    | Entry e when e.key = tag ->
        normalize t e;
        e
    | Entry _ -> go ((i + 1) land t.mask)
  in
  go (slot_of t tag)

(* Allocation-free single-slot probes for the dispatcher's hot path:
   the returned option is the one stored in the entry, not a fresh
   box. *)

let find_ibl t tag =
  let rec go i =
    match t.cells.(i) with
    | Empty -> None
    | Entry e when e.key = tag -> if e.fgen = t.gen then e.ibl else None
    | Entry _ -> go ((i + 1) land t.mask)
  in
  go (slot_of t tag)

let find_bb t tag =
  let rec go i =
    match t.cells.(i) with
    | Empty -> None
    | Entry e when e.key = tag -> if e.fgen = t.gen then e.bb else None
    | Entry _ -> go ((i + 1) land t.mask)
  in
  go (slot_of t tag)

let find_trace t tag =
  let rec go i =
    match t.cells.(i) with
    | Empty -> None
    | Entry e when e.key = tag -> if e.fgen = t.gen then e.trace else None
    | Entry _ -> go ((i + 1) land t.mask)
  in
  go (slot_of t tag)

let set_bb t tag f = (ensure t tag).bb <- Some f
let set_trace t tag f = (ensure t tag).trace <- Some f
let set_ibl t tag f = (ensure t tag).ibl <- Some f

let clear_ibl t tag =
  match find t tag with None -> () | Some e -> e.ibl <- None

(* Backward-shift deletion for linear probing: after emptying slot [i],
   walk the chain forward; an entry at [j] whose ideal slot lies
   cyclically at or before [i] moves back into the hole (which then
   becomes [j]), preserving the invariant that every key is reachable
   from its ideal slot without crossing an [Empty].  Entries move by
   cell reference only — the records themselves are stable, so entry
   references held across a delete of a *different* key stay valid. *)
let delete t tag =
  let rec locate i =
    match t.cells.(i) with
    | Empty -> None
    | Entry e when e.key = tag -> Some i
    | Entry _ -> locate ((i + 1) land t.mask)
  in
  match locate (slot_of t tag) with
  | None -> ()
  | Some hole ->
      t.count <- t.count - 1;
      let rec shift hole j =
        match t.cells.(j) with
        | Empty -> t.cells.(hole) <- Empty
        | Entry e ->
            let ideal = slot_of t e.key in
            (* e may fill the hole iff its ideal slot is not inside the
               cyclic range (hole, j] *)
            if (j - ideal) land t.mask >= (j - hole) land t.mask then begin
              t.cells.(hole) <- t.cells.(j);
              shift j ((j + 1) land t.mask)
            end
            else shift hole ((j + 1) land t.mask)
      in
      shift hole ((hole + 1) land t.mask)

let count t = t.count

(* Successor profiles (speculation, DESIGN.md §6.7): a two-slot
   most-frequent-target histogram per exit site, deliberately kept in
   the index — like head counters, they describe the application, not
   any cached fragment, so they survive flushes and warm resets. *)

let record_successor t site target =
  let e = ensure t site in
  let p =
    match e.prof with
    | Some p -> p
    | None ->
        let p =
          { p_t1 = 0; p_n1 = 0; p_t2 = 0; p_n2 = 0; p_other = 0; p_total = 0 }
        in
        e.prof <- Some p;
        p
  in
  p.p_total <- p.p_total + 1;
  if p.p_n1 = 0 || p.p_t1 = target then begin
    p.p_t1 <- target;
    p.p_n1 <- p.p_n1 + 1
  end
  else if p.p_n2 = 0 || p.p_t2 = target then begin
    p.p_t2 <- target;
    p.p_n2 <- p.p_n2 + 1;
    (* keep slot 1 the dominant one *)
    if p.p_n2 > p.p_n1 then begin
      let t1 = p.p_t1 and n1 = p.p_n1 in
      p.p_t1 <- p.p_t2;
      p.p_n1 <- p.p_n2;
      p.p_t2 <- t1;
      p.p_n2 <- n1
    end
  end
  else p.p_other <- p.p_other + 1

let successor_profile t site =
  match find t site with None -> None | Some e -> e.prof

let copy_profile (p : profile) : profile =
  {
    p_t1 = p.p_t1;
    p_n1 = p.p_n1;
    p_t2 = p.p_t2;
    p_n2 = p.p_n2;
    p_other = p.p_other;
    p_total = p.p_total;
  }

(* Merging two 2-slot histograms: pool the four (target, count) slots
   taking the per-target MAXIMUM, keep the two heaviest (ties broken
   by target so the result is order-independent), and spill the rest
   into [p_other].  Max, not sum: histograms are *cumulative* (an
   image saved by an instance that was itself warm-booted from an
   earlier image carries everything it loaded plus its own samples),
   so summing would double-count shared ancestry on every load.
   Per-target max is idempotent under reloading the same history,
   never moves a count backward, and for genuinely disjoint targets
   degenerates to the union.  The anonymous [p_other] bucket gets the
   same treatment — max over both inputs' buckets and the slot spill —
   rather than an addition, because spilled targets would otherwise
   re-add on every merge of the same cumulative histogram.  [p_total] is
   recomputed as n1 + n2 + other, keeping the invariant the recorder
   maintains. *)
let merge_profile ~(src : profile) (dst : profile) : unit =
  let add acc (t, n) =
    if n <= 0 then acc
    else
      match List.assoc_opt t acc with
      | Some m -> (t, max m n) :: List.remove_assoc t acc
      | None -> (t, n) :: acc
  in
  let slots =
    List.fold_left add []
      [
        (dst.p_t1, dst.p_n1); (dst.p_t2, dst.p_n2);
        (src.p_t1, src.p_n1); (src.p_t2, src.p_n2);
      ]
  in
  let slots =
    List.sort
      (fun (t1, n1) (t2, n2) ->
        if n1 <> n2 then compare n2 n1 else compare t1 t2)
      slots
  in
  let other = max dst.p_other src.p_other in
  (match slots with
  | [] ->
      dst.p_t1 <- 0;
      dst.p_n1 <- 0;
      dst.p_t2 <- 0;
      dst.p_n2 <- 0;
      dst.p_other <- other
  | [ (t1, n1) ] ->
      dst.p_t1 <- t1;
      dst.p_n1 <- n1;
      dst.p_t2 <- 0;
      dst.p_n2 <- 0;
      dst.p_other <- other
  | (t1, n1) :: (t2, n2) :: leftover ->
      dst.p_t1 <- t1;
      dst.p_n1 <- n1;
      dst.p_t2 <- t2;
      dst.p_n2 <- n2;
      dst.p_other <-
        max other (List.fold_left (fun a (_, n) -> a + n) 0 leftover));
  dst.p_total <- dst.p_n1 + dst.p_n2 + dst.p_other

let is_head t tag =
  match find t tag with
  | None -> false
  | Some e -> e.head >= 0 || e.marked

let set_nospec t tag = (ensure t tag).nospec <- true

let nospec t tag =
  match find t tag with None -> false | Some e -> e.nospec

let flush_fragments t = t.gen <- t.gen + 1

let iter_entries t f =
  Array.iter (fun c -> match c with Empty -> () | Entry e -> f e) t.cells

let iter_bbs t f =
  iter_entries t (fun e ->
      if e.fgen = t.gen then
        match e.bb with Some frag -> f e.key frag | None -> ())

let iter_ibl t f =
  iter_entries t (fun e ->
      if e.fgen = t.gen then
        match e.ibl with Some frag -> f e.key frag | None -> ())

let iter_traces t f =
  iter_entries t (fun e ->
      if e.fgen = t.gen then
        match e.trace with Some frag -> f e.key frag | None -> ())

let bb_count t =
  let n = ref 0 in
  iter_bbs t (fun _ _ -> incr n);
  !n

let trace_count t =
  let n = ref 0 in
  iter_traces t (fun _ _ -> incr n);
  !n

module For_testing = struct
  let clear_ibl = clear_ibl
  let count = count
  let copy_profile = copy_profile
end

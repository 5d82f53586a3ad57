(** Unit-granular code-cache allocator — see the interface for the
    design.

    The region is divided into fixed-size units; the free state is a
    sorted list of disjoint maximal runs [(start_unit, n_units)].
    Allocation is address-ordered first-fit over that list; freeing
    re-inserts the run and coalesces with both neighbours.  Run lengths
    of live allocations are remembered by start unit so [free] needs
    only the address.  FIFO eviction *order* is not kept here — the
    runtime tracks fragment age in its own queues and calls [free] as
    it retires them. *)

type t = {
  base : int;
  unit_bytes : int;
  total_units : int;
  mutable free : (int * int) list; (* sorted disjoint (start, len) unit runs *)
  live : (int, int) Hashtbl.t;     (* start unit -> allocated units *)
  mutable free_units : int;
}

let default_unit_bytes = 64

let create ~base ~size ?(unit_bytes = default_unit_bytes) () =
  if size <= 0 then invalid_arg "Cachealloc.create: size must be positive";
  if unit_bytes <= 0 then invalid_arg "Cachealloc.create: unit_bytes must be positive";
  let total_units = size / unit_bytes in
  if total_units = 0 then invalid_arg "Cachealloc.create: size below one unit";
  {
    base;
    unit_bytes;
    total_units;
    free = [ (0, total_units) ];
    live = Hashtbl.create 64;
    free_units = total_units;
  }

let capacity t = t.total_units * t.unit_bytes
let free_bytes t = t.free_units * t.unit_bytes
let used_bytes t = (t.total_units - t.free_units) * t.unit_bytes
let holes t = List.length t.free

let largest_free_bytes t =
  List.fold_left (fun m (_, len) -> max m (len * t.unit_bytes)) 0 t.free

let units_for t bytes = (bytes + t.unit_bytes - 1) / t.unit_bytes

(** First-fit allocation of [bytes] contiguous bytes; [None] when no
    free run is large enough. *)
let alloc t bytes : int option =
  if bytes <= 0 then invalid_arg "Cachealloc.alloc: bytes must be positive";
  let n = units_for t bytes in
  let rec take acc = function
    | [] -> None
    | (start, len) :: rest when len >= n ->
        let rest' = if len = n then rest else (start + n, len - n) :: rest in
        t.free <- List.rev_append acc rest';
        t.free_units <- t.free_units - n;
        Hashtbl.replace t.live start n;
        Some (t.base + (start * t.unit_bytes))
    | run :: rest -> take (run :: acc) rest
  in
  take [] t.free

(** Release the allocation starting at [addr] (as returned by
    {!alloc}); coalesces with adjacent free runs.  Returns the number
    of bytes returned to the free list. *)
let free t ~addr : int =
  let off = addr - t.base in
  if off < 0 || off mod t.unit_bytes <> 0 then
    invalid_arg "Cachealloc.free: address not from this allocator";
  let start = off / t.unit_bytes in
  match Hashtbl.find_opt t.live start with
  | None -> invalid_arg "Cachealloc.free: address not currently allocated"
  | Some n ->
      Hashtbl.remove t.live start;
      t.free_units <- t.free_units + n;
      (* insert (start, n) keeping the list sorted, merging neighbours *)
      let rec ins = function
        | [] -> [ (start, n) ]
        | (s, l) :: rest when s + l = start -> (
            (* merge with predecessor; may also touch the successor *)
            match rest with
            | (s2, l2) :: rest2 when start + n = s2 -> (s, l + n + l2) :: rest2
            | _ -> (s, l + n) :: rest)
        | (s, l) :: rest when start + n = s -> (start, n + l) :: rest
        | (s, l) :: rest when start < s -> (start, n) :: (s, l) :: rest
        | run :: rest -> run :: ins rest
      in
      t.free <- ins t.free;
      n * t.unit_bytes

(** Re-place the allocation at [addr] at the lowest address that fits
    it.  The old run is freed first, so it is itself a candidate;
    address-ordered first-fit then guarantees the result is [<= addr].
    Returns the new address ([= addr] when the allocation is already as
    low as it can go).  The caller owns moving the bytes — the
    destination may overlap the source. *)
let slide_down t ~addr : int =
  let off = addr - t.base in
  if off < 0 || off mod t.unit_bytes <> 0 then
    invalid_arg "Cachealloc.slide_down: address not from this allocator";
  let start = off / t.unit_bytes in
  match Hashtbl.find_opt t.live start with
  | None -> invalid_arg "Cachealloc.slide_down: address not currently allocated"
  | Some n -> (
      ignore (free t ~addr);
      match alloc t (n * t.unit_bytes) with
      | Some a ->
          assert (a <= addr);
          a
      | None -> assert false (* the freed run itself always fits *))

(** Forget every allocation: the whole region becomes one free run. *)
let reset t =
  Hashtbl.reset t.live;
  t.free <- [ (0, t.total_units) ];
  t.free_units <- t.total_units

module For_testing = struct
  let capacity = capacity
  let used_bytes = used_bytes
end

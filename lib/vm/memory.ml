(** Flat little-endian byte memory for the simulated machine.

    Addresses are plain ints in [0, size).  Out-of-range accesses raise
    {!Fault}, which the machine surfaces as a program fault (the
    simulated equivalent of a segfault).

    The store is a private [/dev/zero] mapping: the kernel hands out
    zero pages on first touch, so creating a 64MB machine costs
    microseconds instead of a 64MB memset — the same trick a real VMM
    uses for guest RAM.  Byte loads and stores compile to direct
    unchecked accesses on the Bigarray. *)

exception Fault of { addr : int; size : int; write : bool }

type buf = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  bytes : buf;
  size : int;
  (* write-watching for code-cache consistency: one byte per 4KB page;
     stores into watched pages are recorded in [dirty] (the simulated
     analogue of write-protecting executed pages) *)
  watched_pages : Bytes.t;
  mutable dirty : (int * int) list;  (* [lo, hi) byte ranges *)
  (* write-touch tracking for warm instance reuse: one byte per 4KB
     page, set on any store.  {!zero_touched} wipes exactly the pages a
     run wrote, so resetting a machine between requests costs pages
     written, not address-space size. *)
  touched_pages : Bytes.t;
}

let page_bits = 12

let alloc_zeroed size : buf =
  match Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 with
  | fd ->
      let ga =
        Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout false
          [| size |]
      in
      Unix.close fd;
      Bigarray.array1_of_genarray ga
  | exception Unix.Unix_error _ ->
      (* no /dev/zero (exotic host): allocate and zero explicitly *)
      let a =
        Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout size
      in
      Bigarray.Array1.fill a 0;
      a

let create size =
  {
    bytes = alloc_zeroed size;
    size;
    watched_pages = Bytes.make ((size lsr page_bits) + 1) '\000';
    dirty = [];
    touched_pages = Bytes.make ((size lsr page_bits) + 1) '\000';
  }

let size m = m.size

(** Watch the pages covering [addr, addr+len): subsequent writes there
    are recorded as dirty ranges. *)
let watch_code m ~addr ~len =
  for p = addr lsr page_bits to (addr + len - 1) lsr page_bits do
    Bytes.unsafe_set m.watched_pages p '\001'
  done

let has_dirty m = m.dirty <> []

let take_dirty m =
  let d = m.dirty in
  m.dirty <- [];
  d

let note_write m addr n =
  let p0 = addr lsr page_bits and p1 = (addr + n - 1) lsr page_bits in
  for p = p0 to p1 do
    Bytes.unsafe_set m.touched_pages p '\001'
  done;
  if
    Bytes.unsafe_get m.watched_pages p0 <> '\000'
    || Bytes.unsafe_get m.watched_pages p1 <> '\000'
  then m.dirty <- (addr, addr + n) :: m.dirty

let check m addr n write =
  (* [addr + n] would wrap for an address near max_int *)
  if addr < 0 || addr > m.size - n then raise (Fault { addr; size = n; write });
  if write then note_write m addr n

let read_u8 m addr =
  check m addr 1 false;
  Bigarray.Array1.unsafe_get m.bytes addr

let write_u8 m addr v =
  check m addr 1 true;
  Bigarray.Array1.unsafe_set m.bytes addr (v land 0xFF)

let read_u16 m addr =
  check m addr 2 false;
  Bigarray.Array1.unsafe_get m.bytes addr
  lor (Bigarray.Array1.unsafe_get m.bytes (addr + 1) lsl 8)

(** 32-bit reads return an unsigned value in [0, 2^32). *)
let read_u32 m addr =
  check m addr 4 false;
  let b = m.bytes in
  Bigarray.Array1.unsafe_get b addr
  lor (Bigarray.Array1.unsafe_get b (addr + 1) lsl 8)
  lor (Bigarray.Array1.unsafe_get b (addr + 2) lsl 16)
  lor (Bigarray.Array1.unsafe_get b (addr + 3) lsl 24)

let write_u32 m addr v =
  check m addr 4 true;
  let b = m.bytes in
  Bigarray.Array1.unsafe_set b addr (v land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 1) ((v lsr 8) land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 2) ((v lsr 16) land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 3) ((v lsr 24) land 0xFF)

(* f64 values travel through an int64 built from two 32-bit halves
   (a 63-bit OCaml int cannot carry all 64 payload bits) *)

let read_f64 m addr =
  check m addr 8 false;
  let b = m.bytes in
  let half o =
    Bigarray.Array1.unsafe_get b (addr + o)
    lor (Bigarray.Array1.unsafe_get b (addr + o + 1) lsl 8)
    lor (Bigarray.Array1.unsafe_get b (addr + o + 2) lsl 16)
    lor (Bigarray.Array1.unsafe_get b (addr + o + 3) lsl 24)
  in
  Int64.float_of_bits
    (Int64.logor
       (Int64.of_int (half 0))
       (Int64.shift_left (Int64.of_int (half 4)) 32))

let write_f64 m addr v =
  check m addr 8 true;
  let bits = Int64.bits_of_float v in
  let lo = Int64.to_int (Int64.logand bits 0xFFFF_FFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let b = m.bytes in
  Bigarray.Array1.unsafe_set b addr (lo land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 1) ((lo lsr 8) land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 2) ((lo lsr 16) land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 3) ((lo lsr 24) land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 4) (hi land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 5) ((hi lsr 8) land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 6) ((hi lsr 16) land 0xFF);
  Bigarray.Array1.unsafe_set b (addr + 7) ((hi lsr 24) land 0xFF)

(** Bulk read of [len] bytes starting at [addr]: one bounds check for
    the whole range instead of [len] bounds-checked byte fetches. *)
let read_bytes m ~addr ~len =
  check m addr len false;
  let b = m.bytes in
  Bytes.init len (fun i -> Char.unsafe_chr (Bigarray.Array1.unsafe_get b (addr + i)))

(** Bulk copy [len] bytes of [src] starting at [src_pos] into memory. *)
let blit_bytes m ~src ~src_pos ~dst ~len =
  check m dst len true;
  let b = m.bytes in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set b (dst + i)
      (Char.code (Bytes.unsafe_get src (src_pos + i)))
  done

(** Bulk copy without write tracking: neither marks pages touched nor
    records dirty ranges.  For writers that are not the application:
    loaders restoring known-good image bytes without perturbing the
    watch/touch state (warm reuse), and the runtime's code emission,
    link patching and compaction moves, which invalidate the decodes
    they overwrite themselves and must not raise SMC traps. *)
let blit_bytes_raw m ~src ~src_pos ~dst ~len =
  if dst < 0 || dst > m.size - len then
    raise (Fault { addr = dst; size = len; write = true });
  let b = m.bytes in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set b (dst + i)
      (Char.code (Bytes.unsafe_get src (src_pos + i)))
  done

(** Zero every page below [below] that has been written since the last
    call, clearing its touch mark; returns the zeroed [lo, hi) ranges
    (page-granular, coalesced).  [below] must be page-aligned. *)
let zero_touched m ~below =
  let npages = min (below lsr page_bits) ((m.size lsr page_bits) + 1) in
  let ranges = ref [] in
  let p = ref 0 in
  while !p < npages do
    if Bytes.unsafe_get m.touched_pages !p <> '\000' then begin
      let q = ref !p in
      while !q < npages && Bytes.unsafe_get m.touched_pages !q <> '\000' do
        Bytes.unsafe_set m.touched_pages !q '\000';
        incr q
      done;
      let lo = !p lsl page_bits in
      let hi = min m.size (!q lsl page_bits) in
      Bigarray.Array1.fill (Bigarray.Array1.sub m.bytes lo (hi - lo)) 0;
      ranges := (lo, hi) :: !ranges;
      p := !q
    end
    else incr p
  done;
  List.rev !ranges

(** Byte-equality of [a] and [b] over [addr, addr+len). *)
let equal_range (a : t) (b : t) ~addr ~len =
  if addr < 0 || addr > a.size - len || addr > b.size - len then
    raise (Fault { addr; size = len; write = false });
  let ba = a.bytes and bb = b.bytes in
  let rec go i =
    i >= len
    || Bigarray.Array1.unsafe_get ba (addr + i)
         = Bigarray.Array1.unsafe_get bb (addr + i)
       && go (i + 1)
  in
  go 0

(** A {!Isa.Decode.fetch} view of this memory (bounds-checked). *)
let fetch (m : t) : Isa.Decode.fetch = fun addr -> read_u8 m addr

module For_testing = struct
  let equal_range = equal_range
end

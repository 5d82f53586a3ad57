(** Flat little-endian byte memory for the simulated machine, with
    page-granular write-watching for code-cache consistency.

    Out-of-range accesses raise {!Fault} (the simulated segfault).
    Pages marked with {!watch_code} record any store overlapping them
    as dirty byte ranges; the interpreter drains these at control
    transfers to invalidate stale decoded instructions and (under a
    runtime) trigger fragment flushes. *)

exception Fault of { addr : int; size : int; write : bool }

type t

val page_bits : int
(** Log2 of the watch/invalidation page size (4KB pages). *)

val create : int -> t
val size : t -> int

val watch_code : t -> addr:int -> len:int -> unit
(** Watch the pages covering the range; subsequent overlapping writes
    are recorded as dirty. *)

val has_dirty : t -> bool
val take_dirty : t -> (int * int) list

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int

val read_u32 : t -> int -> int
(** Unsigned value in [0, 2{^32}). *)

val write_u32 : t -> int -> int -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit

val read_bytes : t -> addr:int -> len:int -> Bytes.t
(** Fresh copy of the [len] bytes at [addr]; one bounds check for the
    whole range. *)

val blit_bytes : t -> src:Bytes.t -> src_pos:int -> dst:int -> len:int -> unit

val blit_bytes_raw : t -> src:Bytes.t -> src_pos:int -> dst:int -> len:int -> unit
(** Bulk copy without write tracking (no touch marks, no dirty ranges).
    For writes that are not the application's: loaders restoring
    known-good image bytes on a reused machine, and the runtime's code
    emission, link patching and compaction moves into the code cache
    (which invalidate their own decodes, and must not raise SMC traps
    on the cache pages a thread has executed). *)

val zero_touched : t -> below:int -> (int * int) list
(** Zero every page below the (page-aligned) bound that has been
    written since the last call; returns the zeroed ranges.  The cost
    of resetting a machine between requests is proportional to pages
    written, not address-space size. *)

val fetch : t -> Isa.Decode.fetch
(** Bounds-checked byte-fetcher view for the decoders. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val equal_range : t -> t -> addr:int -> len:int -> bool
  (** Byte-equality of two memories over [addr, addr+len). *)
end

(** Unit-granular allocator for a bounded code-cache region.

    The cache-management layer (DESIGN.md §6.3): a fixed address range
    is carved into fixed-size units; fragments occupy contiguous unit
    runs handed out first-fit from a sorted free list and returned one
    run at a time as the runtime evicts fragments in FIFO order.  The
    allocator is a pure address-space manager — it knows nothing about
    fragments, threads, or eviction policy; {!Emit} owns those
    decisions and the runtime keeps separate instances for the
    basic-block and trace regions. *)

type t

val create : base:int -> size:int -> ?unit_bytes:int -> unit -> t
(** An allocator over [\[base, base + size)]. [size] is rounded down to
    a whole number of units. *)

val alloc : t -> int -> int option
(** [alloc t bytes] — first-fit allocation of a contiguous run covering
    [bytes]; [None] when no free run is large enough (the caller evicts
    and retries, or gives up). *)

val free : t -> addr:int -> int
(** Release the allocation starting at [addr]; returns the bytes
    reclaimed.  Raises [Invalid_argument] if [addr] is not a live
    allocation of this allocator. *)

val slide_down : t -> addr:int -> int
(** [slide_down t ~addr] re-places the allocation starting at [addr] at
    the lowest address that fits it and returns the new address (always
    [<= addr]; [= addr] when it cannot move lower).  Only the address
    bookkeeping moves — the caller must copy the bytes and fix up any
    embedded addresses (the relocation replay in {!Emit}).  The new run
    may overlap the old one.  Raises [Invalid_argument] if [addr] is
    not a live allocation of this allocator. *)

val reset : t -> unit
(** Drop every allocation (flush-the-world). *)

val free_bytes : t -> int

val holes : t -> int
(** Number of maximal free runs — the free-list fragmentation gauge. *)

val largest_free_bytes : t -> int
(** Size of the largest free run: the biggest fragment that could be
    emitted without evicting. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val capacity : t -> int

  val used_bytes : t -> int
end

(** Fragment emission, linking, deletion, eviction, and cache-resident
    decoding. *)

val exit_info : Instr.t -> (Types.exit_kind * int * bool) option

val write_bytes : Types.runtime -> addr:int -> Bytes.t -> unit

val patch_site_len : Types.runtime -> pc:int -> int option
(** The one definition of a patchable exit site: the length of the
    long-form [jmp]/[jcc] at [pc], or [None].  Everything that re-targets
    a site ({!patch_branch}: link, unlink, moves, image loads, fault
    injection) and everything that picks one (the fault injector) uses
    it. *)

val patch_branch : Types.runtime -> pc:int -> target:int -> unit

val link :
  Types.runtime -> Types.exit_ -> Types.fragment -> unit

val unlink : Types.runtime -> Types.exit_ -> unit

val delete_fragment :
  Types.runtime ->
  Types.thread_state -> Types.fragment -> unit
(** Remove a fragment: unlink everything in and out, drop table
    entries, fire the client hook (exactly once — the [deleted] flag
    guards every deletion path).  Under the FIFO policy the cache bytes
    are reclaimed later, when the fragment reaches the front of its age
    queue; under the bump allocator space is only reclaimed by a full
    flush. *)

exception Cache_full
(** The runtime's own address region is exhausted — fatal. *)

exception No_room of bool
(** A bounded FIFO region could not host the fragment even after
    evicting every unpinned fragment.  The payload is [true] when
    pinned fragments were skipped — a full flush at the next globally
    safe point would still make room — and [false] when the region
    simply cannot fit a fragment of this size.  Trace emission drops
    the trace on either; basic-block emission requests the flush and
    retries, or surfaces {!Cache_full}. *)

val alloc :
  Types.runtime ->
  Types.thread_state -> kind:Types.fragment_kind -> int -> int

val refresh_cache_gauges : Types.runtime -> unit
(** Refresh the free-list gauges in {!Stats} from the live allocators
    (no-op under the bump allocator). *)

val emit_fragment :
  Types.runtime ->
  Types.thread_state ->
  kind:Types.fragment_kind ->
  tag:int ->
  ?src_ranges:(int * int) list -> Instrlist.t -> Types.fragment
(** Emit a client-view (already mangled) IL as a fragment for [tag].

    Exit CTIs may appear both in the body and inside custom stubs
    (one level deep) — the latter is how a client builds a "code
    sequence at the bottom of the trace" reached only on an exit path
    (paper §4.3).  Registers the fragment; does not link.

    Two walks visit the instructions in image order (the body, then
    each exit's stub in exit order).  The first plans the exits and
    lays the image out at entry-relative offsets; every length is
    pc-independent, since exit CTIs and stub jumps take their fixed
    rel32 forms.  Once the cache space is allocated, the second writes
    each instruction into one buffer of the final size: raw bits are
    blitted (§3.1: copied, not re-encoded), exit CTIs and stub jumps
    come from the fixed-form writers, and an instruction without valid
    raw bits (Level 4, or a CTI) reuses the bytes the first walk
    encoded for its length.  Only a non-exit direct CTI is encoded again
    at its final pc. *)

val decode_fragment_il :
  Types.runtime -> Types.fragment -> Instrlist.t
(** Rebuild the client-view IL of a fragment by decoding its cache
    bytes (paper §3.4, [dr_decode_fragment]).  Exit CTIs are mapped
    back to their canonical form: direct exits get their application
    target, indirect exits their IND pseudo-token; custom stubs are
    re-attached as notes. *)

val replace_fragment :
  Types.runtime ->
  Types.thread_state ->
  Types.fragment -> Instrlist.t -> Types.fragment
(** Replace [old_frag] with a fresh emission of [il].  All links
    targeting the old fragment move to the new one atomically (from the
    application's perspective); the old body stays in memory so a
    thread currently executing inside it simply runs until its next
    exit, whose stubs remain valid — exactly the paper's delayed-delete
    scheme. *)

val ranges_overlap : ('a * 'b) list -> ('b * 'a) list -> bool
(** Does any of the byte ranges [ranges] overlap any of [src]? *)

val flush_ranges :
  Types.runtime ->
  Types.thread_state -> (int * int) list -> Types.fragment list
(** Delete every fragment built from application code overlapping any
    of [ranges].  Returns the deleted fragments (so the dispatcher can
    refuse to resume inside one).  Ranges starting at or above
    [tls_base] (TLS, the cache itself) cannot overlap any fragment's
    [src_ranges], so they are dropped before the index walk, and a
    flush with nothing left walks nothing. *)

val flush_all : Types.runtime -> unit
(** Delete every fragment of every thread and reclaim the cache region.
    Only legal when no thread is executing inside the cache (the
    dispatcher calls this at safe points). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val check_invariants : Types.runtime -> (unit, string) result
  (** Verify cache/link consistency (DESIGN.md invariant 7) over every
      live fragment:
      - a linked exit's target fragment is live, and the exit appears in
        the target's incoming list (and vice versa);
      - the patched branch bytes agree with the link state (linked →
        target entry / always-through-stub rules; unlinked → own stub);
      - every stub's final jump targets either its trap token (unlinked)
        or the linked target's entry (always-through-stub). *)

  val move_fragment :
    Types.runtime -> Types.fragment -> dst:int -> unit
  (** Move a live fragment's cache image to [dst] and fix up everything
      that addressed the old placement, by replaying the fragment's
      relocation table:

      - the body and stub bytes are copied (the ranges may overlap — the
        whole image is read out first);
      - every pc-relative site ([RT_exit_branch] / [RT_stub_jmp]) has its
        rel32 rewritten at its new address against its current logical target
        (linked peer's entry, own stub, or trap token — the link state in
        the exit records, which a move does not change);
      - absolute-memory operands ([RT_tls_abs] / [RT_runtime_abs]) encode
        addresses outside the cache and need no fixup;
      - inbound links (the fragment's [incoming] list) are re-pointed at
        the new entry;
      - a preempted thread resuming inside the fragment has its pc slid
        by the same delta.  Transparency guarantees this is the only
        cache address in thread state: application registers and stacks
        never hold cache addresses, so a pinned fragment is movable —
        which is exactly what lets compaction consolidate free space
        around fragments FIFO eviction must skip. *)
end

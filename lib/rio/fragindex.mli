(** The unified per-thread fragment index: one open-addressing,
    power-of-two hash table keyed by application tag, replacing the
    four separate [Hashtbl]s ([bbs], [traces], [ibl], head state) the
    dispatcher used to probe on every exit from the code cache.  This
    mirrors the paper's in-cache indirect-branch hashtable (§2.3): the
    hot lookups — "is there a trace for this tag", "is there a basic
    block", "is this tag a trace head and how hot is it", "what does
    the indirect-branch lookup resolve to" — are all answered by a
    single linear probe.

    Emptying a per-tag {e slot} (one fragment kind) just clears that
    field; {!delete} removes a whole key by backward-shift (no
    tombstones), so an evicted fragment leaves no ghost entry behind;
    evicting {e every} fragment at once (flush-the-world) bumps a
    table-wide generation counter in O(1) — entries whose generation is
    stale read as empty and are lazily reset on next touch.  Trace-head
    counters deliberately survive a fragment flush, exactly as the old
    separate [head_counters] table did (capacity eviction therefore
    only deletes keys with no head state left). *)

include module type of struct include Fragindex_t end

type 'a t

val create : ?bits:int -> unit -> 'a t
(** [create ~bits ()] — initial capacity [2^bits] (default 9). *)

val find : 'a t -> int -> 'a entry option
(** The entry for a tag, with fragment slots already normalized against
    the current generation; [None] if the tag was never indexed. *)

val ensure : 'a t -> int -> 'a entry
(** The entry for a tag, creating it (all slots empty) if absent. *)

val find_ibl : 'a t -> int -> 'a option
(** Allocation-free probe of just the indirect-branch slot. *)

val find_bb : 'a t -> int -> 'a option
val find_trace : 'a t -> int -> 'a option

val set_bb : 'a t -> int -> 'a -> unit
val set_trace : 'a t -> int -> 'a -> unit
val set_ibl : 'a t -> int -> 'a -> unit

val is_head : 'a t -> int -> bool
(** True when the tag has a head counter or a client mark. *)

val set_nospec : 'a t -> int -> unit
(** Record a despeculation verdict for the tag: never again fold
    observed constants into traces rooted at this site. *)

val nospec : 'a t -> int -> bool
(** True when the tag carries a despeculation verdict. *)

val delete : 'a t -> int -> unit
(** Remove the key entirely — fragment slots, head counter, and mark —
    closing its probe chain by backward shift.  No-op when absent.
    Entry references for {e other} keys stay valid (records move by
    cell, not by copy); a reference to the deleted key's entry becomes
    detached and must not be reused. *)

val record_successor : 'a t -> int -> int -> unit
(** [record_successor t site target] adds one sample to the site's
    successor profile, creating it on first use. *)

val successor_profile : 'a t -> int -> profile option
(** The site's successor profile, if any samples were recorded. *)

val merge_profile : src:profile -> profile -> unit
(** [merge_profile ~src dst] folds [src]'s histogram into [dst]:
    per-target counts combine by maximum (histograms are cumulative, so
    summing would double-count shared ancestry; max is idempotent under
    re-merging the same history and a union for disjoint targets), the
    two heaviest targets keep the slots (ties broken by target, so
    merge order does not matter), the rest spill into [p_other] — which
    itself combines by maximum over both buckets and the spill, so
    merging the same cumulative histogram again is a no-op — and
    [p_total] is recomputed to match.  [src] is not modified.  This is
    how the persistent-image loader folds a saved profile into what
    the instance already learned instead of clobbering it. *)

val flush_fragments : 'a t -> unit
(** Invalidate every bb/trace/ibl slot in O(1) (generation bump);
    head counters and marks survive. *)

val iter_entries : 'a t -> ('a entry -> unit) -> unit
(** Iterate every live entry (fragment slots may be stale — check
    against the accessors, or use the typed iterators below).  The
    persistence layer uses this to save head counters, profiles, and
    verdicts in one walk. *)

val iter_bbs : 'a t -> (int -> 'a -> unit) -> unit
val iter_traces : 'a t -> (int -> 'a -> unit) -> unit
val iter_ibl : 'a t -> (int -> 'a -> unit) -> unit

val bb_count : 'a t -> int
val trace_count : 'a t -> int

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val clear_ibl : 'a t -> int -> unit

  val count : 'a t -> int
  (** Live keys in the table. *)

  val copy_profile : profile -> profile
  (** Fresh, unshared copy of a profile record. *)
end

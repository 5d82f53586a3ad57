(** Runtime statistics, kept per {!Rio} instance. *)

type hist = { counts : int array }

val hist_create : unit -> hist
val hist_add : hist -> int -> unit

val hist_percentile : hist -> int -> int
(** The [q]-th percentile (0..100) as a bucket upper bound: the value
    [v] such that at least [ceil (q/100 * n)] samples are <= [v].
    Returns 0 on an empty histogram. *)

type t = {
  mutable blocks_built : int;
  mutable traces_built : int;
  mutable fragments_deleted : int;
  mutable fragments_replaced : int;
  mutable context_switches : int;
  mutable ibl_lookups : int;
  mutable ibl_misses : int;          (** lookup failed; back to dispatcher *)
  mutable direct_links : int;
  mutable unlinks : int;
  mutable clean_calls : int;
  mutable cache_bytes_bb : int;
  mutable cache_bytes_trace : int;
  mutable trace_head_promotions : int;
  mutable signals_delivered : int;
  mutable runtime_cycles : int;      (** modelled cycles spent in the runtime *)
  mutable sideline_cycles : int;     (** optimization cycles offloaded to a spare processor *)
  mutable cache_flushes : int;       (** capacity-driven flush-the-world events *)
  (* --- incremental (FIFO) cache management --- *)
  mutable evictions : int;           (** live fragments deleted to make room *)
  mutable evicted_bytes : int;       (** cache bytes reclaimed by eviction *)
  mutable traces_dropped : int;      (** traces abandoned because no room could be made *)
  mutable full_flush_fallbacks : int;
      (** FIFO eviction defeated (everything left was pinned): a full
          flush was requested instead *)
  mutable freelist_holes : int;      (** gauge: maximal free runs across both regions *)
  mutable freelist_free_bytes : int; (** gauge: total free bytes across both regions *)
  mutable freelist_largest_hole : int;
      (** gauge: largest single free run (biggest emittable fragment) *)
  mutable enters_bb : int;           (** fragment entries landing on basic blocks *)
  mutable enters_trace : int;        (** fragment entries landing on traces *)
  (* --- trace optimization (DESIGN.md §6.4) --- *)
  mutable opt_traces : int;          (** traces run through the optimizer *)
  mutable opt_insns_removed : int;   (** total instructions deleted, all passes *)
  mutable opt_copies_propagated : int;
  mutable opt_consts_propagated : int;
  mutable opt_strength_reduced : int;   (** inc→add / dec→sub conversions *)
  mutable opt_loads_removed : int;      (** redundant loads deleted *)
  mutable opt_loads_rewritten : int;    (** loads turned into register moves *)
  mutable opt_stores_removed : int;     (** dead stores deleted *)
  mutable opt_dead_removed : int;       (** dead register/flag writes deleted *)
  mutable opt_checks_simplified : int;  (** exit-check peepholes applied *)
  mutable opt_flag_saves_elided : int;  (** save/restore brackets removed *)
  mutable traces_reoptimized : int;
      (** hot traces re-optimized in place via decode/replace *)
  mutable opt_replaces_skipped : int;
      (** re-optimizations abandoned by the cost gate: the optimized
          body estimated no cheaper, so the original was kept *)
  (* --- speculation (-O3, DESIGN.md §6.7) --- *)
  mutable spec_traces : int;         (** traces emitted with at least one guard *)
  mutable spec_guards_ind : int;     (** indirect-target guards compiled *)
  mutable spec_guards_const : int;   (** constant-load guards compiled *)
  mutable spec_exit_biases : int;
      (** final conditional trace exits whose polarity was inverted so
          the profile-dominant successor leaves through the single jcc
          instead of the jcc-then-jmp fall-through path *)
  mutable spec_violations : int;     (** guard side exits taken *)
  mutable spec_despecs : int;
      (** traces re-optimized without an assumption after its guard
          exceeded the violation budget *)
  (* --- fault injection (S34) --- *)
  mutable faults_injected : int;     (** total faults the injector introduced *)
  mutable faults_corrupt : int;      (** cache-byte corruptions injected *)
  mutable faults_link : int;         (** link-target flips injected *)
  mutable faults_hook : int;         (** client-hook raises injected *)
  mutable faults_signal : int;       (** spurious signals injected *)
  (* --- detection and recovery (S34) --- *)
  mutable faults_detected : int;     (** audit/ladder activations *)
  mutable recover_reemit : int;      (** ladder rung 1: fragment deleted and rebuilt *)
  mutable recover_flush_frag : int;  (** rung 2: all fragments of the source range flushed *)
  mutable recover_flush_world : int; (** rung 3: flush-the-world requested *)
  mutable recover_emulate : int;     (** rung 4: tag demoted to pure emulation *)
  mutable blocks_emulated : int;     (** executions of emulate-only blocks *)
  mutable audits_run : int;          (** cache audits performed *)
  mutable audit_fragments : int;     (** fragments examined across all audits *)
  (* --- client-hook isolation (S34) --- *)
  mutable hook_failures : int;       (** client hooks that raised (or were made to) *)
  mutable clients_quarantined : int; (** 1 once the client is disabled for the run *)
  mutable spurious_signals_dropped : int;
      (** pending signals with handlers outside application space,
          discarded at the delivery safe point *)
  (* --- pool supervision (DESIGN.md §6.6) --- *)
  mutable deadline_preempts : int;
      (** runs preempted by the per-request watchdog
          ({!Engine.set_watchdog}) *)
  (* --- relocation + persistent cache (DESIGN.md §6.8) --- *)
  mutable compactions : int;         (** region-compaction passes run *)
  mutable fragments_moved : int;     (** live fragments slid by compaction *)
  mutable moved_bytes : int;         (** cache bytes copied by those moves *)
  mutable persist_saves : int;       (** cache images written *)
  mutable persist_loads : int;       (** cache images loaded *)
  mutable persist_load_failures : int;
      (** image loads refused (bad magic/version/checksum/digest) *)
  mutable fragments_persisted : int; (** fragments written across all saves *)
  mutable fragments_preloaded : int; (** fragments re-materialized from images *)
}

val create : unit -> t

(** The [--stats] report block a counter is printed in. *)
type group = Core | Cache | Opt | Spec | Faults

(** Where the report prints a counter: on its own labelled line; as a
    "short N" term of composite line [line] (group, line, short), valued
    by a row labelled [line] before its terms, else their sum; or nowhere. *)
type place = Line of group * string | Part of group * string * string | Unprinted

(** Counters add; gauges (point-in-time snapshots of one cache,
    meaningless summed) take the maximum. *)
type merge_kind = Sum | Max

type row = {
  name : string;  (** the record field *)
  place : place;
  merge : merge_kind;
  get : t -> int;
  set : t -> int -> unit;
}

val merge : t -> t -> t
(** A fresh record combining two instances' counters, for pool-wide
    reports: each row by its merge kind. *)

val pp_report : Options.t -> Format.formatter -> t -> unit
(** The [--stats] report: core and cache always, opt when any pass is on,
    spec at -O3, faults when injection or auditing is on. *)

val keep_code_layout :
  (int -> int -> int -> int -> int -> int -> int -> int -> int -> int ->
   int -> int -> int -> int -> int -> int -> int -> int -> int -> 'a) -> 'a
(** Never called: it keeps [caml_apply19] linked, which holds the
    benchmark's code layout (see stats.ml). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val bucket_of : int -> int
  (** Bucket index of a sample: 0 for non-positive values, otherwise the
      position of the highest set bit plus one. *)

  val bucket_upper : int -> int
  (** Inclusive upper bound of a bucket: the largest sample it can hold. *)

  val hist_count : hist -> int

  val recoveries : t -> int
  (** Total recovery-ladder activations, all rungs. *)

  val rows : row list
  (** Every int counter of {!t}, one row each, in report order.  Adding a
      counter means one field, one {!create} entry and one row here;
      {!merge} and {!pp_report} follow from the rows. *)
end

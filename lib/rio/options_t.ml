(* The types of {!Options}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

type costs = {
  context_switch : int;
      (** cycles to leave the cache, restore runtime state, dispatch,
          and re-enter the cache *)
  ibl_lookup : int;
      (** in-cache indirect-branch hashtable lookup (includes the
          mispredicted indirect jump at its end) *)
  stub_exec : int;       (** executing an exit stub's save/record path *)
  bb_build_base : int;   (** fixed cost of building a basic block *)
  bb_build_per_insn : int;
  trace_build_per_insn : int;  (** full decode + analysis + re-encode *)
  clean_call : int;      (** context save/restore around a clean call *)
  replace_fragment : int;
  audit_per_fragment : int;
      (** modelled cost of auditing one fragment (checksum walk +
          link-state validation) at a dispatch safe point *)
  evict_fragment : int;
      (** unlinking and reclaiming one fragment under incremental
          (FIFO) capacity eviction *)
  opt_per_insn_pass : int;
      (** running one optimizer pass over one trace instruction (each
          pass is a linear scan, far cheaper than the full decode +
          re-encode already covered by [trace_build_per_insn]) *)
}

(** The in-core optimizer's passes, runnable individually (see
    {!Opt}).  [opt_level] selects a canonical set; [opt_enable] /
    [opt_disable] fine-tune it. *)
type opt_pass =
  | Copy_prop       (** copy + constant propagation *)
  | Strength        (** inc→add / dec→sub (architecture-gated) *)
  | Load_removal    (** redundant load removal *)
  | Dead_store      (** dead stores + dead register/flag writes *)
  | Exit_peephole   (** exit-check simplification *)
  | Flag_elide      (** dead flag-save/restore bracket elision *)

(** Deterministic fault injection (S34).  The injector fires at
    dispatcher safe points, roughly once every [fi_period] dispatches,
    choosing uniformly among the enabled fault kinds.  Everything is
    driven by a private LCG seeded with [fi_seed], so a given
    (seed, workload, options) triple replays exactly. *)
type fault_opts = {
  fi_seed : int;
  fi_period : int;     (** mean dispatches between injections (>= 1) *)
  fi_corrupt : bool;   (** flip a byte inside a live fragment *)
  fi_links : bool;     (** re-patch a linked exit branch to a bogus target *)
  fi_hooks : bool;     (** make the next client hook invocation raise *)
  fi_signals : bool;   (** queue a signal whose handler is outside app space *)
}

(** Configuration of the serving pool ({!Pool}): sizing,
    per-request deadlines, the bounded retry ladder, and the
    per-workload-key quarantine circuit breaker. *)
type pool_opts = {
  domains : int;           (** worker domains (>= 1) *)
  max_inflight : int;      (** submitted-but-incomplete cap (>= 1) *)
  retries : int;
      (** retry-ladder depth: failed requests are retried up to this
          many times (warm → cold → cold), 0 disables retries *)
  quarantine_threshold : int;
      (** consecutive final failures of one workload key before its
          circuit breaker opens and new submits are rejected (>= 1) *)
  deadline_cycles : int option;
      (** per-request simulated-cycle budget; the watchdog preempts the
          engine at the next fragment boundary once exceeded *)
  deadline_secs : float option;
      (** per-request host wall-clock bound, same preemption path *)
  (* --- serving front-end (DESIGN.md §6.10) --- *)
  accept_queue : int;
      (** admission bound: total requests admitted but not yet finished
          before {!Pool.try_submit} sheds with [Overloaded] (>= 1).
          [max_inflight] still bounds the blocking {!Pool.submit} path *)
  prewarm : bool;
      (** build every (worker, workload) instance at pool boot, before
          any request is accepted, so steady-state traffic sees zero
          cold boots *)
}

(** What to do when a bounded code cache fills up (DESIGN.md §6.3). *)
type flush_policy =
  | Flush_fifo
      (** incremental reclamation: evict the oldest unpinned fragments,
          one at a time, until the new fragment fits.  The capacity is
          a hard bound split between a basic-block and a trace region *)
  | Flush_full
      (** Dynamo's flush-the-world: the capacity is a soft bound over a
          bump allocator; crossing it requests a whole-cache flush at
          the next globally safe point (the pre-refactor behaviour) *)

type t = {
  emulate : bool;         (** pure emulation: no cache at all (Table 1 row 1) *)
  link_direct : bool;     (** link direct branches between fragments *)
  link_indirect : bool;   (** in-cache indirect-branch lookup (vs. full context switch) *)
  enable_traces : bool;
  trace_threshold : int;  (** trace-head executions before trace creation *)
  max_trace_blocks : int; (** cap on constituent blocks per trace *)
  max_bb_insns : int;     (** basic blocks stop after this many instructions *)
  cache_capacity : int option;
      (** bound on total code-cache bytes; [None] = unlimited (the
          paper's experimental setup).  How overflow is handled is
          [flush_policy]'s choice *)
  flush_policy : flush_policy;
      (** capacity response; irrelevant when [cache_capacity] is
          [None] *)
  cache_compaction : bool;
      (** under the FIFO policy, slide live fragments down over free
          holes (relocation replay) when an allocation fails from
          fragmentation rather than capacity, and as a last resort
          before giving up — FIFO eviction's worst case (free space
          sharded around pinned fragments) becomes a compaction instead
          of a dropped trace or a full flush *)
  quantum : int;          (** scheduler quantum, cycles *)
  always_save_flags : bool;
      (** disable the Level-2 eflags liveness analysis: every inline
          target check conservatively saves and restores the
          application flags (ablation of §3.1's motivation) *)
  sideline : bool;
      (** perform trace optimization and fragment replacement on a
          simulated spare processor: their cost is tracked but not
          charged to the application thread (paper §3.4's "sideline
          optimization" direction) *)
  opt_level : int;
      (** trace-optimization level 0–3 ([-O]); 0 disables the in-core
          optimizer entirely so seed cycle counts are unchanged.  Level
          3 runs the same classic passes as 2 and additionally builds
          speculative traces: profile-guided guard insertion with
          mid-trace deoptimization (DESIGN.md §6.7) *)
  opt_enable : opt_pass list;
      (** individual passes added on top of [opt_level]'s set (requires
          [opt_level >= 1]) *)
  opt_disable : opt_pass list;
      (** individual passes removed from [opt_level]'s set *)
  reopt_threshold : int option;
      (** re-optimize a trace through decode/replace once it has been
          entered this many times ([None] = use the built-in deferral
          threshold; requires [opt_level >= 1] and a positive
          threshold) *)
  spec_threshold : int;
      (** minimum successor-profile samples at an exit site before the
          trace builder speculates on it (dominant-target inlining,
          exit-direction gating); only consulted at [opt_level >= 3] *)
  spec_max_violations : int;
      (** guard violations tolerated per guard before the trace is
          re-optimized without that assumption (the speculative exit is
          cut); only consulted at [opt_level >= 3] *)
  max_cycles : int;       (** safety stop *)
  faults : fault_opts option;
      (** deterministic fault injection; [None] = injector off *)
  audit_period : int;
      (** run the cache auditor every N context switches (and
          immediately after every injected fault); 0 = never *)
  client_fail_limit : int;
      (** client-hook failures tolerated before the client is
          quarantined (hooks skipped for the rest of the run) *)
  costs : costs;
}

(** Every leaf of {!t}, {!costs}, {!fault_opts} and {!pool_opts} is one
    typed row of a table.  The bundle codec ({!Bundle}), the
    single-field range checks of {!validate} / {!pool_ranges}, the
    flags of both CLIs ({!Cli}) and the autotuner's get/set/print all
    derive from the rows, so a new knob is one record field, one
    default and one row.  Rows are in canonical bundle field order:
    that order fixes the printed payload and hence every bundle
    digest. *)
type _ ty =
  | Bool : bool ty
  | Int : int ty
  | Float : float ty
  | Opt : 'a ty -> 'a option ty  (** [None] is JSON [null], text ["none"] *)
  | Passes : opt_pass list ty
  | Policy : flush_policy ty
  | Table : 'r table -> 'r ty     (** a nested object *)

and 'r table = { default : 'r; rows : 'r knob list }

and 'r knob =
  | Knob : {
      key : string;  (** JSON key; dotted path for {!leaves} of nested tables *)
      doc : string;  (** also the help text of the row's flag *)
      ty : 'a ty;
      get : 'r -> 'a;
      set : 'r -> 'a -> 'r;
      range : 'a -> string option;  (** [Some why] when out of range *)
      flag : (string list * string) option;  (** CLI names and docv *)
    }
      -> 'r knob

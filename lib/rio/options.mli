(** Runtime configuration. *)

include module type of struct include Options_t end

val pass_name : opt_pass -> string

val pass_of_name : string -> opt_pass option

val passes_at_level : int -> opt_pass list
(** Canonical pass set per level: [-O1] runs the flag-safe rewrites,
    [-O2] adds the passes backed by the register/memory liveness
    analysis.  [-O3] runs the same classic passes; what it adds is the
    speculative machinery in {!Trace}/{!Opt} (profile-guided guard
    insertion and mid-trace deoptimization, DESIGN.md §6.7), which is
    not a pass over the IL but a change to how traces are built. *)

val default_faults : fault_opts

val flush_policy_name : flush_policy -> string

val default : t

val engine_table : t table

val pool_table : pool_opts table

val print : 'a ty -> 'a -> string
(** Text form of a value: what the autotuner logs and what a flag
    parses. *)

val parse : 'a ty -> string -> ('a, string) result

val text_access : 'r table -> string -> ('r -> string) * ('r -> string -> 'r)
(** Text-level get/set of the leaf row [key] (dotted for nested rows):
    a search space names knobs and value ladders, the table does the
    rest.  Raises [Invalid_argument] on an unknown key or a value that
    does not parse. *)

val pool_ranges : pool_opts -> (unit, string) result
(** Validate pool sizing and supervision parameters; {!Pool.create},
    {!Bundle.validate} and the [rio_serve] CLI all reject bad values
    through here so the message is identical at every entry point.
    Every pool knob is independent, so the single-field ranges of
    {!pool_table} are the whole check. *)

val digest : t -> int
(** FNV-1a over the marshalled options bundle.  Any field that changes
    code generation changes the digest, so a persisted cache image
    built under different options is refused at load rather than
    producing subtly wrong code.  [t] is plain data (no closures), so
    marshalling is deterministic within one program version. *)

exception Invalid_options of string
(** Raised by {!validate_exn} (and thus {!Rio.create}) on option
    combinations that could only fail later, mid-emission. *)

val min_cache_capacity : t -> int
(** Smallest [cache_capacity] the FIFO policy accepts: each region
    (capacity/2 for basic blocks, the rest for traces) must fit the
    largest possible bb fragment even with every other fragment
    evicted. *)

val effective_passes : t -> opt_pass list
(** The pass set a configuration actually runs: the level's canonical
    passes, plus [opt_enable], minus [opt_disable], in canonical order. *)

val validate : t -> (unit, string) result
(** Single-field ranges come from {!engine_table}; the checks written
    out here span fields: the opt-level range every level gate keys
    on, the FIFO capacity floor, and the knobs that need the optimizer
    on. *)

val validate_exn : t -> unit

val default_pool : pool_opts
(** Declared here, not beside [pool_opts]: a value's position in this
    interface is its field index in the module block, and the benchmark
    binary's code layout depends on it (see [Stats.keep_code_layout]). *)

val validate_pool_exn : pool_opts -> unit

val table1_configs : (string * t) list
(** The five configurations of Table 1, in order. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val leaves : 'r table -> 'r knob list
  (** The leaf rows of a table, nested tables flattened in place with
      dotted keys (["costs.ibl_lookup"]).  An absent optional sub-table
      ([faults = None]) reads as its default. *)

  val default_costs : costs
end

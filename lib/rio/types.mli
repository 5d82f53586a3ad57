(** Shared runtime types for the RIO core: fragments, exits, per-thread
    dispatch state, the runtime, client hooks, and address-space layout. *)

val tls_base : int

val cache_base : int

val trap_base : int

val slot_ibl_target : int

val slot_eflags : int

val slot_spill0 : int

val slot_client : int

val tls_addr : tid:int -> slot:int -> int
(** Absolute address of a TLS slot for a thread. *)

val tls_slot_of_addr : int -> (int * int) option
(** Decompose a TLS-region address back into [(tid, slot)] — the
    inverse of {!tls_addr}, used to type absolute-memory relocations. *)

include module type of struct include Types_t end

val ind_kind_name : ind_kind -> string

val ind_token : ind_kind -> int
(** Pseudo-target used in client-visible ILs for CTIs that resolve via
    the indirect-branch lookup. *)

val ind_kind_of_token : int -> ind_kind option

val is_app_addr : int -> bool

val spec_burst_window : int
(** Violation-budget window, in machine cycles: two guard firings
    closer together than this are one burst.  A guard that still hits
    most of the time fires with long gaps between misses and never
    accumulates a burst; a guard whose assumption has died (the
    workload changed phase) fires on back-to-back iterations and
    spends its budget within a few trips round the loop. *)

val token_of_exit : exit_ -> int

val guard_of_exit : fragment -> int -> guard option
(** The guard bound to [exit_id] in [f], if any. *)

val null_client : client

exception Stub_note of Instrlist.t * bool
(** Note attached to an exit CTI carrying its custom stub: the stub
    preamble IL and the always-go-through-stub flag (paper §3.2). *)

exception Rio_error of string

exception Client_abort of string
(** Raised by clients to terminate the application (e.g. a security
    client refusing to execute injected code).  The runtime turns it
    into an {e application fault} outcome. *)

val rio_error : ('a, unit, string, 'b) format4 -> 'a

val register_exit : runtime -> exit_ -> unit

val exit_of_id : runtime -> int -> exit_ option

val drop_exit : runtime -> exit_ -> unit

val thread_inside : runtime -> fragment -> bool
(** True when some preempted thread will resume execution inside [f]:
    such a fragment is pinned — it may be neither corrupted (fault
    injection) nor reclaimed (capacity eviction) until the thread
    leaves the cache. *)

val charge : runtime -> int -> unit

val charge_opt : runtime -> int -> unit
(** Charge an optimization cost: to the application thread normally,
    or to the spare processor under sideline optimization. *)

val log_flow : runtime -> ('a, unit, string, unit) format4 -> 'a

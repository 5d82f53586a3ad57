(** The simulated machine: memory, hardware threads, predictor state,
    cycle counter, and I/O ports. *)

include module type of struct include Machine_t end

val create : ?family:Cost.family -> ?mem_size:int -> unit -> t

val mem : t -> Memory.t

val cost : t -> Cost.t

val cycles : t -> int

val add_cycles : t -> int -> unit

val output : t -> int list

val set_input : t -> int list -> unit

val push_output : t -> int -> unit

val pop_input : t -> int

val add_thread : t -> entry:int -> stack_top:int -> thread

val live_threads : t -> thread list

val get_reg : thread -> Isa.Reg.t -> int

val set_reg : thread -> Isa.Reg.t -> int -> unit

val get_freg : thread -> Isa.Reg.F.t -> float

val set_freg : thread -> Isa.Reg.F.t -> float -> unit

val schedule_signal : t -> at:int -> tid:int -> handler:int -> unit
(** Schedule an asynchronous signal: at (or after) cycle [at], thread
    [tid]'s control is redirected to [handler] (old pc pushed on its
    stack, handler returns with [ret]). *)

val poll_signals : t -> bool
(** Move due signals into their thread's pending queue; returns true if
    any became pending. *)

exception Bad_code of { pc : int; err : Isa.Decode.error; }

val fetch_slot : t -> int -> islot
(** Fetch-and-decode with caching.  Returns the (mutable, reused) cache
    slot — valid until the next fetch that maps to the same line. *)

val fetch_slot_nocache : t -> int -> islot
(** Decode without caching (the pure-emulation path re-decodes every
    time, which is the point of Table 1's first row).  Fills the
    machine's scratch slot. *)

val invalidate_icache : t -> addr:int -> len:int -> unit
(** Invalidate cached decodes for [len] bytes at [addr].  The RIO layer
    calls this after writing code (patching links, emitting fragments). *)

val reset_for_run : t -> unit
(** Reset the per-run machine state for serving a new request on a
    reused machine: threads, I/O ports, cycle and instruction counters,
    signals, and predictor go back to power-on.  Memory contents and
    cached decodes are left alone — the warm-reuse path (Rio) zeroes
    the pages the previous run wrote and restores the program image,
    invalidating cached decodes only where bytes changed. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val main_thread : t -> thread
end

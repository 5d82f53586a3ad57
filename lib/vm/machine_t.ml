(* The types of {!Machine}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

open Isa

(* One line of the decoded-instruction cache.  Slots are mutated in
   place on refill so steady-state fetch allocates nothing. *)
type islot = {
  mutable is_pc : int;               (* -1 = never filled *)
  mutable is_gen : int;              (* page generation when filled *)
  mutable is_insn : Insn.t;
  mutable is_len : int;
  mutable is_cost : int;             (* static (operand-shape) cycles *)
}

type thread = {
  tid : int;
  regs : int array;                  (* 8 GPRs, unsigned 32-bit values *)
  fregs : float array;               (* 8 FP regs *)
  mutable eflags : Eflags.t;
  mutable pc : int;
  mutable alive : bool;
  mutable pending_signals : int list;  (* handler addresses, FIFO *)
}

type t = {
  mem : Memory.t;
  cost : Cost.t;
  pred : Cost.predictor;
  mutable cycles : int;
  mutable insns_retired : int;
  mutable output : int list;         (* reversed *)
  mutable input : int list;
  mutable threads : thread list;     (* in tid order *)
  mutable next_tid : int;
  mutable trap_base : int;           (* addresses >= trap_base trap to the runtime *)
  (* decoded-instruction cache: models the hardware fetch/decode path.
     Direct-mapped on the low pc bits; invalidation is a per-4KB-page
     generation bump, so the RIO layer's post-patch invalidations are
     O(pages touched) instead of O(bytes).  Hit/miss behaviour is purely
     a host-time concern — decode is free in the cost model. *)
  icache : islot array;
  icache_gens : int array;           (* one generation per 4KB page *)
  emu_slot : islot;                  (* scratch slot for uncached decode *)
  (* timed signal queue: (deliver_at_cycle, tid, handler_addr) *)
  mutable signal_queue : (int * int * int) list;
  (* when true the runtime intercepts signal delivery (RIO active) *)
  mutable intercept_signals : bool;
  (* when true, writes to executed code stop execution at the next
     control transfer so the runtime can flush stale fragments *)
  mutable smc_trap : bool;
  mutable pending_smc : (int * int) list;
}

(* The types of {!Types}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

type ind_kind = Ind_jmp | Ind_call | Ind_ret

type fragment_kind = Bb | Trace

(** What an address embedded in a fragment's cache bytes refers to.
    Every absolute target the emitter encodes is recorded as one of
    these, so a fragment can be moved (cache compaction) or serialized
    and re-materialized at a different address (persistent cache) by
    replaying its relocation table instead of re-emitting from IL. *)
type reloc_target =
  | RT_exit_branch of int
      (* ordinal into [exits]: the exit CTI.  Encoded pc-relative, so a
         move rewrites its rel32 for the new site; its logical target
         (stub, or linked peer's entry) is owned by the exit record *)
  | RT_stub_jmp of int
      (* ordinal into [exits]: the stub's final jmp (token or, for
         always-through-stub exits, the linked peer's entry) *)
  | RT_tls_abs of int * int
      (* (tid, slot): absolute-memory operand addressing a TLS runtime
         slot.  Position-independent under a move; persistable, but the
         image loader must re-validate the tid against the loading
         thread *)
  | RT_runtime_abs of int
      (* any other runtime-absolute memory operand (client global
         slots, profiling counters at >= cache_base).  Stable under a
         move within one runtime; never persistable, because the
         address belongs to a heap allocation of this process's
         runtime *)

(** One relocation site: [r_off] is the byte offset of the referencing
    instruction from the fragment's entry. *)
type reloc = { r_off : int; r_target : reloc_target }

type exit_ = {
  mutable exit_id : int;
      (* global; trap token = trap_base + 4*id.  Assigned once emission
         has its cache space, after the exit was planned *)
  e_kind : exit_kind;
  mutable target_tag : int;           (* 0 for indirect exits *)
  mutable branch_pc : int;            (* cache addr of the exit CTI *)
  mutable branch_is_cond : bool;
  mutable stub_pc : int;              (* cache addr of the stub entry *)
  mutable stub_jmp_pc : int;          (* addr of the stub's final jmp (patched when always_through_stub links) *)
  mutable linked : fragment option;
  always_through_stub : bool;
  stub_il : Instrlist.t option;       (* stub preamble (client custom stub and/or flags restore) *)
  mutable e_owner : fragment option;  (* back-pointer, set at registration *)
}

and exit_kind = Exit_direct | Exit_indirect of ind_kind

and fragment = {
  tag : int;
  kind : fragment_kind;
  f_tid : int;
  mutable entry : int;                (* mutable: compaction slides live fragments *)
  mutable body_end : int;             (* exclusive *)
  mutable total_end : int;            (* end of stubs *)
  relocs : reloc array;
      (* every absolute target embedded in [entry, total_end), typed;
         the move and image-load paths fix code up by replaying these *)
  exits : exit_ array;
  mutable incoming : exit_ list;      (* exits of (other) fragments linked to me *)
  mutable deleted : bool;
  mutable exec_count : int;
      (* entries observed at dispatch/IBL safe points, counted while
         deferred/hot-trace re-optimization is armed (opt_level >= 1) *)
  mutable reopted : bool;
      (* this body already went through (or resulted from) hot-trace
         re-optimization: never re-optimize twice *)
  loaded : bool;
      (* re-materialized from a persisted cache image rather than built
         by this process: the bytes are valid code but the IL round-trip
         is gone (stub preambles lost their notes), so anything that
         decodes the body back to IL — re-optimization, guard cutting —
         must take a rebuild path instead *)
  mutable guards : guard list;
      (* speculative guards compiled into this (trace) fragment, each
         bound to the exit that fires when its assumption is violated
         (DESIGN.md §6.7); empty below -O3 *)
  mutable checksum : int;
      (* FNV-1a hash of the fragment's cache bytes [entry, total_end),
         refreshed after every legitimate patch (link/unlink/replace);
         the auditor recomputes and compares to detect corruption *)
  src_ranges : (int * int) list;
      (* application-code byte ranges this fragment was built from,
         for self-modifying-code flushes *)
}

(** What a speculative guard assumed. *)
and guard_kind =
  | G_ind of ind_kind  (* dominant indirect-branch target inlined *)
  | G_const            (* observed-constant memory cell folded *)

(** A speculative assumption compiled into a trace.  The guard's
    machine form is an ordinary conditional exit (cmp + jne) whose
    side-exit stub is the recovery map: the exit CTI is an all-live
    boundary for the liveness analyses, so every register holds its
    precise application value there, and the stub restores the flags
    the compare clobbered.  Deoptimization is therefore just taking
    the exit — control lands on the unoptimized constituent block (or
    the IBL) with exact machine state. *)
and guard = {
  g_site : int;                 (* app tag of the block that was specialized *)
  g_kind : guard_kind;
  mutable g_exit_id : int;      (* the bound side exit; -1 until bound *)
  mutable g_violations : int;   (* times this guard fired, lifetime *)
  mutable g_last_violation : int;  (* cycle stamp of the last firing *)
  mutable g_burst : int;        (* consecutive firings within the window *)
}

(** The trace builder's pending CTI: what the last stitched block ended
    with, resolved once execution shows where control actually went. *)
type pending_cti =
  | P_jcc of Isa.Cond.t * int * int  (* cond, taken target, fall-through *)
  | P_jmp of int
  | P_ind of ind_kind
  | P_halt
  | P_start                          (* no block stitched yet *)

type tracegen = {
  tg_head : int;
  mutable tg_tags : int list;            (* constituent block tags, reversed *)
  mutable tg_src : (int * int) list;
      (* their source ranges, reversed, captured at stitch time: under
         FIFO pressure a constituent bb may be evicted before the trace
         is emitted, and the trace must still be flushable by SMC *)
  mutable tg_il : Instrlist.t;           (* stitched client-view IL so far *)
  mutable tg_insns : int;
  mutable tg_pending : pending_cti;
  mutable tg_checks : Instr.t list;      (* jne instrs of inline checks, for flags fixup *)
  mutable tg_guards : (Instr.t * guard) list;
      (* jne -> speculative guard, by physical instr identity; bound to
         real exit ids once the trace is emitted *)
}

type end_trace_directive = End_trace | Continue_trace | Default_end

type thread_state = {
  ts_tid : int;
  mutable thread : Vm.Machine.thread;
      (* rebound on warm reuse: each request brings a fresh machine
         thread, but the fragment index (the warm cache) is keyed by
         tid and survives *)
  mutable next_tag : int;
  (* the unified fragment index: basic blocks, traces, the in-cache
     indirect-branch lookup table, and trace-head state, all in one
     open-addressing table probed once per dispatch.  Trace heads are
     deliberately absent from the ibl slots so their executions pass
     through the dispatcher and bump the head counter. *)
  index : fragment Fragindex.t;
  mutable tracegen : tracegen option;
  mutable client_field : exn option;     (* per-thread client storage *)
  mutable exited : bool;                 (* thread_exit hook delivered *)
  mutable in_cache : bool;               (* preempted mid-fragment: resume at thread.pc *)
}

type runtime = {
  machine : Vm.Machine.t;
  opts : Options.t;
  stats : Stats.t;
  mutable client : client;
  mutable thread_states : thread_state list;
  (* exit ids are dense (allocated sequentially), so the trap-token →
     exit mapping is a flat array: one bounds check per cache exit
     instead of a hashed lookup *)
  mutable exits_by_id : exit_ option array;
  mutable next_exit_id : int;
  ccalls : (int, ccall_fn) Hashtbl.t;
  mutable next_ccall_id : int;
  mutable cache_cursor : int;
      (* bump cursor for the unbounded / full-flush-policy cache; under
         the FIFO policy it is pinned at the region end so transparent
         heap allocations cannot grow into the bounded cache *)
  cache_end : int;
  mutable heap_cursor : int;          (* transparent allocations grow down from cache_end *)
  mutable flush_pending : bool;       (* capacity exceeded: flush at next safe point *)
  (* --- incremental cache management (FIFO policy, DESIGN.md §6.3) --- *)
  cache_alloc : (Cachealloc.t * Cachealloc.t) option;
      (* (bb region, trace region); [Some] only with a bounded capacity
         under the FIFO policy — [None] selects the legacy bump path *)
  fifo_bb : fragment Queue.t;         (* bb fragments in emission order *)
  fifo_trace : fragment Queue.t;      (* trace fragments in emission order *)
  mutable client_output : Buffer.t;      (* transparent I/O: dr_printf *)
  mutable client_global : exn option;    (* dr global storage *)
  mutable flow_log : string list;        (* optional dispatch-event log (Figure 1) *)
  mutable log_flow : bool;
  (* --- fault tolerance (S34) --- *)
  mutable watchdog : (unit -> bool) option;
      (* per-request deadline probe (pool supervision, DESIGN.md §6.6):
         polled at dispatcher safe points and quantum boundaries; when
         it returns true the run is preempted at the next fragment
         boundary with a [Deadline_exceeded] outcome *)
  mutable client_failures : int;      (* hook raises so far *)
  mutable client_quarantined : bool;  (* hooks disabled after too many *)
  mutable fi_state : int;             (* fault-injector LCG state *)
  mutable fi_hook_pending : bool;     (* next client hook must raise *)
  recover_attempts : (int, int) Hashtbl.t;
      (* tag -> recovery-ladder rung already attempted *)
  emulate_only : (int, unit) Hashtbl.t;
      (* tags demoted permanently to pure emulation (ladder rung 4) *)
  mutable emit_digest : int;
      (* FNV fold of (kind, tag, entry, size, checksum) over every
         fragment emission and every checksum re-stamp (link, unlink,
         move, image load): a fingerprint of every byte image the
         runtime ever wrote into the cache, in order.  Tests pin it so
         a change to the emitter cannot move a cache byte unnoticed *)
}

and context = { rt : runtime; ts : thread_state }

and ccall_fn = context -> unit

(** Client hooks (paper Table 3 + §3.5).  [None] hooks are skipped at
    zero cost. *)
and client = {
  name : string;
  init : runtime -> unit;
  exit_hook : runtime -> unit;
  thread_init : context -> unit;
  thread_exit : context -> unit;
  basic_block : (context -> tag:int -> Instrlist.t -> unit) option;
  trace_hook : (context -> tag:int -> Instrlist.t -> unit) option;
  fragment_deleted : (context -> tag:int -> unit) option;
  end_trace : (context -> trace_tag:int -> next_tag:int -> end_trace_directive) option;
}

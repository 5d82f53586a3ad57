(** Shared runtime types for the RIO core: fragments, exits, per-thread
    dispatch state, the runtime, client hooks, and address-space layout.

    {2 Address-space layout}

    {v
    0x0000_0000 .. 0x007F_FFFF   application (text, data, stacks)
    0x0080_0000 .. 0x0080_FFFF   thread-local runtime slots (TLS)
    0x0100_0000 .. cache_end     code caches (fragments + exit stubs)
    0x4000_0000 ..               trap tokens (never backed by memory):
                                 control transfers here return to the
                                 runtime, identifying the taken exit
    0x5000_0000 .. 0x5000_000B   pseudo-targets in client-visible ILs:
                                 "this CTI goes to the indirect-branch
                                 lookup" (jmp/call/ret flavours)
    v} *)

let tls_base = 0x80_0000
let tls_slot_bytes = 4
let tls_slots_per_thread = 16
let cache_base = 0x100_0000
let trap_base = 0x4000_0000
let ind_token_base = 0x5000_0000

(* TLS slot indices *)
(* app target of an in-flight indirect branch *)
let slot_ibl_target = 0
(* eflags save around inserted code *)
let slot_eflags = 1
(* register spill slots 0..7: indices 2..9 *)
let slot_spill0 = 2
(* generic client slot (tls_field API) *)
let slot_client = 10

(** Absolute address of a TLS slot for a thread. *)
let tls_addr ~tid ~slot =
  tls_base + (tid * tls_slots_per_thread * tls_slot_bytes) + (slot * tls_slot_bytes)

(** Exclusive end of the TLS region (64KB: 1024 threads). *)
let tls_end = tls_base + 0x1_0000

(** Decompose a TLS-region address back into [(tid, slot)] — the
    inverse of {!tls_addr}, used to type absolute-memory relocations. *)
let tls_slot_of_addr a =
  if a >= tls_base && a < tls_end then begin
    let rel = a - tls_base in
    let per_thread = tls_slots_per_thread * tls_slot_bytes in
    Some (rel / per_thread, rel mod per_thread / tls_slot_bytes)
  end
  else None

type ind_kind = Ind_jmp | Ind_call | Ind_ret

let ind_kind_name = function
  | Ind_jmp -> "jmp*"
  | Ind_call -> "call*"
  | Ind_ret -> "ret"

(** Pseudo-target used in client-visible ILs for CTIs that resolve via
    the indirect-branch lookup. *)
let ind_token = function
  | Ind_jmp -> ind_token_base
  | Ind_call -> ind_token_base + 4
  | Ind_ret -> ind_token_base + 8

let ind_kind_of_token a =
  if a = ind_token_base then Some Ind_jmp
  else if a = ind_token_base + 4 then Some Ind_call
  else if a = ind_token_base + 8 then Some Ind_ret
  else None

let is_app_addr a = a >= 0 && a < tls_base

type fragment_kind = Bb | Trace

(* ------------------------------------------------------------------ *)
(* Relocations                                                        *)
(* ------------------------------------------------------------------ *)

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

(** Violation-budget window, in machine cycles: two guard firings
    closer together than this are one burst.  A guard that still hits
    most of the time fires with long gaps between misses and never
    accumulates a burst; a guard whose assumption has died (the
    workload changed phase) fires on back-to-back iterations and
    spends its budget within a few trips round the loop. *)
let spec_burst_window = 250

let token_of_exit (e : exit_) = trap_base + (4 * e.exit_id)

(** The guard bound to [exit_id] in [f], if any. *)
let guard_of_exit (f : fragment) (exit_id : int) : guard option =
  List.find_opt (fun g -> g.g_exit_id = exit_id) f.guards

(* ------------------------------------------------------------------ *)

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

let null_client =
  {
    name = "null";
    init = (fun _ -> ());
    exit_hook = (fun _ -> ());
    thread_init = (fun _ -> ());
    thread_exit = (fun _ -> ());
    basic_block = None;
    trace_hook = None;
    fragment_deleted = None;
    end_trace = None;
  }

(** Note attached to an exit CTI carrying its custom stub: the stub
    preamble IL and the always-go-through-stub flag (paper §3.2). *)
exception Stub_note of Instrlist.t * bool

exception Rio_error of string

(** Raised by clients to terminate the application (e.g. a security
    client refusing to execute injected code).  The runtime turns it
    into an {e application fault} outcome. *)
exception Client_abort of string

let rio_error fmt = Printf.ksprintf (fun s -> raise (Rio_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Exit-id registry                                                   *)
(* ------------------------------------------------------------------ *)

let register_exit (rt : runtime) (e : exit_) : unit =
  let id = e.exit_id in
  let n = Array.length rt.exits_by_id in
  if id >= n then begin
    let bigger = Array.make (max (2 * n) (id + 1)) None in
    Array.blit rt.exits_by_id 0 bigger 0 n;
    rt.exits_by_id <- bigger
  end;
  rt.exits_by_id.(id) <- Some e

let exit_of_id (rt : runtime) id : exit_ option =
  if id >= 0 && id < Array.length rt.exits_by_id then rt.exits_by_id.(id)
  else None

let drop_exit (rt : runtime) (e : exit_) : unit =
  let id = e.exit_id in
  if id >= 0 && id < Array.length rt.exits_by_id then rt.exits_by_id.(id) <- None

(** True when some preempted thread will resume execution inside [f]:
    such a fragment is pinned — it may be neither corrupted (fault
    injection) nor reclaimed (capacity eviction) until the thread
    leaves the cache. *)
let thread_inside (rt : runtime) (f : fragment) : bool =
  List.exists
    (fun ts ->
      ts.in_cache
      &&
      let pc = ts.thread.Vm.Machine.pc in
      pc >= f.entry && pc < f.total_end)
    rt.thread_states

let charge (rt : runtime) n =
  Vm.Machine.add_cycles rt.machine n;
  rt.stats.Stats.runtime_cycles <- rt.stats.Stats.runtime_cycles + n

(** Charge an optimization cost: to the application thread normally,
    or to the spare processor under sideline optimization. *)
let charge_opt (rt : runtime) n =
  if rt.opts.Options.sideline then
    rt.stats.Stats.sideline_cycles <- rt.stats.Stats.sideline_cycles + n
  else charge rt n

(* With the log off the arguments are consumed unformatted: no string
   is built on the hot paths that log every dispatch and switch. *)
let log_flow (rt : runtime) fmt =
  if rt.log_flow then
    Printf.ksprintf (fun s -> rt.flow_log <- s :: rt.flow_log) fmt
  else Printf.ikfprintf ignore () fmt

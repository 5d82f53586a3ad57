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

include Types_t

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

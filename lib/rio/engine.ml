(** Runtime lifecycle: create a RIO instance over a machine, run the
    application under the code cache, and reset a finished instance
    for reuse on the next request while keeping its cache warm.

    [Rio] (the library's public face) re-exports everything here; this
    lives below it so {!Pool} can drive instances without a dependency
    cycle through the facade. *)

open Types

type t = runtime

include Engine_t

let stats (rt : t) = rt.stats
let machine (rt : t) = rt.machine
let options (rt : t) = rt.opts
let flow_log (rt : t) = List.rev rt.flow_log

let create ?(opts = Options.default) ?(client = null_client) (m : Vm.Machine.t) : t
    =
  if Vm.Memory.size (Vm.Machine.mem m) <= cache_base then
    rio_error "machine memory too small for a code cache (need > 16MB)";
  Options.validate_exn opts;
  m.Vm.Machine.trap_base <- trap_base;
  m.Vm.Machine.intercept_signals <- not opts.Options.emulate;
  m.Vm.Machine.smc_trap <- not opts.Options.emulate;
  (* A bounded capacity under the FIFO policy gets a pair of free-list
     allocators (half each for basic blocks and traces) and the bump
     cursor pinned at the region end, so transparent heap allocations
     can never grow into the managed cache.  Otherwise the historical
     bump-and-flush scheme is selected by [cache_alloc = None]. *)
  let cache_alloc, cursor0 =
    match (opts.Options.cache_capacity, opts.Options.flush_policy) with
    | Some cap, Options.Flush_fifo ->
        let bb_size = cap / 2 in
        let bb = Cachealloc.create ~base:cache_base ~size:bb_size () in
        let tr =
          Cachealloc.create ~base:(cache_base + bb_size) ~size:(cap - bb_size) ()
        in
        (Some (bb, tr), cache_base + cap)
    | _ -> (None, cache_base)
  in
  {
    machine = m;
    opts;
    stats = Stats.create ();
    client;
    thread_states = [];
    exits_by_id = Array.make 1024 None;
    next_exit_id = 1;
    ccalls = Hashtbl.create 64;
    next_ccall_id = 1;
    cache_cursor = cursor0;
    cache_end = Vm.Memory.size (Vm.Machine.mem m);
    heap_cursor = Vm.Memory.size (Vm.Machine.mem m);
    flush_pending = false;
    cache_alloc;
    fifo_bb = Queue.create ();
    fifo_trace = Queue.create ();
    client_output = Buffer.create 256;
    client_global = None;
    flow_log = [];
    log_flow = false;
    client_failures = 0;
    client_quarantined = false;
    fi_state =
      (match opts.Options.faults with
      | Some f -> if f.Options.fi_seed = 0 then 0x9e3779b9 else f.Options.fi_seed
      | None -> 0);
    fi_hook_pending = false;
    watchdog = None;
    recover_attempts = Hashtbl.create 16;
    emulate_only = Hashtbl.create 16;
    emit_digest = 0;
  }

let enable_flow_log (rt : t) = rt.log_flow <- true

(** Arm (or disarm, with [None]) the per-request watchdog.  The probe
    is polled at dispatcher safe points and quantum boundaries; once it
    returns true the run stops with {!Deadline_exceeded} at the next
    fragment boundary.  The pool arms it with a cycle budget and a
    wall-clock bound before each request and disarms it after, so a
    warm instance never carries a stale deadline into the next
    request. *)
let set_watchdog (rt : t) (probe : (unit -> bool) option) : unit =
  rt.watchdog <- probe

let make_thread_state (rt : t) (thread : Vm.Machine.thread) : thread_state =
  let ts =
    {
      ts_tid = thread.Vm.Machine.tid;
      thread;
      next_tag = thread.Vm.Machine.pc;
      index = Fragindex.create ();
      tracegen = None;
      client_field = None;
      exited = false;
      in_cache = false;
    }
  in
  rt.thread_states <- rt.thread_states @ [ ts ];
  ts

(** Find the warm per-tid state for a new request's thread, or create
    one.  The fragment index — the warm cache — is what reuse keeps. *)
let attach_thread_state (rt : t) (thread : Vm.Machine.thread) : thread_state =
  match
    List.find_opt (fun ts -> ts.ts_tid = thread.Vm.Machine.tid) rt.thread_states
  with
  | Some ts ->
      ts.thread <- thread;
      ts.next_tag <- thread.Vm.Machine.pc;
      ts.tracegen <- None;
      ts.client_field <- None;
      ts.exited <- false;
      ts.in_cache <- false;
      ts
  | None -> make_thread_state rt thread

(** Reset a finished instance so the next request starts from a clean
    machine while the code cache, fragment indexes, and traces stay
    warm.  [restore] re-blits the program-image slices covering the
    just-zeroed pages (see {!Asm.Image.restore}), returning the ranges
    it rewrote.

    Pages the previous request wrote below the cache are zeroed;
    fragments built from bytes on those pages (self-modifying or
    data-resident code) are flushed before the image comes back, so a
    stale body can never serve a tag whose source bytes reverted. *)
let reset_for_reuse (rt : t)
    ~(restore : Vm.Machine.t -> zeroed:(int * int) list -> (int * int) list) :
    unit =
  let m = rt.machine in
  List.iter
    (fun ts ->
      Trace.abort_tracegen rt ts;
      ts.in_cache <- false)
    rt.thread_states;
  let flush ranges =
    match (rt.thread_states, ranges) with
    | ts :: _, _ :: _ -> ignore (Emit.flush_ranges rt ts ranges)
    | _ -> ()
  in
  (* code writes the previous request left unsettled (SMC detected but
     not yet flushed at its end) *)
  let leftover =
    m.Vm.Machine.pending_smc @ Vm.Memory.take_dirty (Vm.Machine.mem m)
  in
  flush leftover;
  Vm.Machine.reset_for_run m;
  let mem = Vm.Machine.mem m in
  let zeroed = Vm.Memory.zero_touched mem ~below:cache_base in
  flush zeroed;
  let restored = restore m ~zeroed in
  List.iter
    (fun (lo, hi) -> Vm.Machine.invalidate_icache m ~addr:lo ~len:(hi - lo))
    zeroed;
  List.iter
    (fun (lo, hi) -> Vm.Machine.invalidate_icache m ~addr:lo ~len:(hi - lo))
    restored;
  (* the reset itself must not read as self-modification *)
  ignore (Vm.Memory.take_dirty mem);
  (* warm traces keep their speculative guards (like the successor
     profiles that justified them) but each request gets a fresh
     violation budget: a previous request's near-misses must not push a
     surviving trace over the despeculation threshold *)
  List.iter
    (fun ts ->
      Fragindex.iter_traces ts.index (fun _ f ->
          List.iter
            (fun g ->
              g.g_violations <- 0;
              g.g_burst <- 0;
              g.g_last_violation <- 0)
            f.guards))
    rt.thread_states;
  Buffer.clear rt.client_output;
  rt.flow_log <- []

(** Run the whole application under RIO: round-robin over threads,
    dispatching and executing out of thread-private code caches. *)
let run (rt : t) : outcome =
  let m = rt.machine in
  let c0 = Vm.Machine.cycles m in
  let i0 = m.Vm.Machine.insns_retired in
  Guard.protect rt ~hook:"init" (fun () -> rt.client.init rt);
  List.iter
    (fun th ->
      let ts = attach_thread_state rt th in
      Guard.protect rt ~hook:"thread_init" (fun () ->
          rt.client.thread_init { rt; ts }))
    (Vm.Machine.live_threads m);
  let deadline = c0 + rt.opts.Options.max_cycles in
  let fault = ref None in
  let preempted = ref false in
  let kill_all () =
    List.iter (fun t -> t.Vm.Machine.alive <- false) m.Vm.Machine.threads
  in
  (* quantum-boundary watchdog poll: a fragment linked into a tight
     self-loop never reaches a dispatcher safe point, so the per-quantum
     check here is what bounds even fully cache-resident spins *)
  let watchdog_fired () =
    match rt.watchdog with
    | None -> false
    | Some probe ->
        let fired = probe () in
        if fired && not !preempted then begin
          preempted := true;
          rt.stats.Stats.deadline_preempts <-
            rt.stats.Stats.deadline_preempts + 1;
          log_flow rt "watchdog: request deadline exceeded";
          kill_all ()
        end;
        fired
  in
  let rec loop () =
    let runnable =
      List.filter
        (fun ts -> ts.thread.Vm.Machine.alive && not ts.exited)
        rt.thread_states
    in
    if
      runnable <> [] && !fault = None && (not !preempted)
      && Vm.Machine.cycles m < deadline
      && not (watchdog_fired ())
    then begin
      List.iter
        (fun ts ->
          if ts.thread.Vm.Machine.alive && !fault = None && not !preempted then
            match Dispatch.run_quantum rt ts with
            | exception Client_abort msg ->
                fault := Some ("terminated by client: " ^ msg);
                List.iter
                  (fun t -> t.Vm.Machine.alive <- false)
                  m.Vm.Machine.threads
            | exception Emit.Cache_full ->
                fault := Some "code cache exhausted (runtime region full)";
                List.iter
                  (fun t -> t.Vm.Machine.alive <- false)
                  m.Vm.Machine.threads
            | exception Rio_error msg ->
                (* runtime invariant violation or client API misuse *)
                fault := Some ("runtime error: " ^ msg);
                List.iter
                  (fun t -> t.Vm.Machine.alive <- false)
                  m.Vm.Machine.threads
            | Dispatch.Q_budget -> ()
            | Dispatch.Q_deadline ->
                if not !preempted then begin
                  preempted := true;
                  rt.stats.Stats.deadline_preempts <-
                    rt.stats.Stats.deadline_preempts + 1;
                  log_flow rt "watchdog: request deadline exceeded"
                end;
                kill_all ()
            | Dispatch.Q_thread_done ->
                ts.thread.Vm.Machine.alive <- false;
                Guard.protect rt ~hook:"thread_exit" (fun () ->
                    rt.client.thread_exit { rt; ts });
                ts.exited <- true
            | Dispatch.Q_fault f ->
                fault := Some f;
                List.iter
                  (fun t -> t.Vm.Machine.alive <- false)
                  m.Vm.Machine.threads)
        runnable;
      loop ()
    end
  in
  loop ();
  (* threads killed by a fault still get their exit hooks *)
  List.iter
    (fun ts ->
      if not ts.exited then begin
        Guard.protect rt ~hook:"thread_exit" (fun () ->
            rt.client.thread_exit { rt; ts });
        ts.exited <- true
      end)
    rt.thread_states;
  Guard.protect rt ~hook:"exit" (fun () -> rt.client.exit_hook rt);
  let reason =
    match !fault with
    | Some f -> App_fault f
    | None ->
        if !preempted then Deadline_exceeded
        else if Vm.Machine.cycles m >= deadline then Cycle_limit
        else All_exited
  in
  { reason; cycles = Vm.Machine.cycles m - c0; insns = m.Vm.Machine.insns_retired - i0 }

(* ---------------- persistent cache images (DESIGN.md §6.8) ------- *)

(** Serialize this instance's warm code cache and index knowledge to a
    relocatable on-disk image; see {!Persist.save}.  [image_digest]
    should be {!Asm.Image.digest} of the program being served. *)
let save_image (rt : t) ~(image_digest : int) ~(path : string) : int =
  Persist.save rt ~image_digest ~path

(** Warm-boot a freshly created instance from a saved image; see
    {!Persist.load}.  Must run before the first request. *)
let load_image (rt : t) ~(image_digest : int) ~(path : string) :
    (Persist.summary, Persist.error) result =
  Persist.load rt ~image_digest ~path

let stop_reason_to_string = function
  | All_exited -> "all threads exited"
  | App_fault f -> "application fault: " ^ f
  | Cycle_limit -> "cycle limit reached"
  | Deadline_exceeded -> "request deadline exceeded"
  | Crashed msg -> "worker crashed: " ^ msg

module For_testing = struct
  let make_thread_state = make_thread_state
end

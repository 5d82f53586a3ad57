(** The dispatcher: Figure 1 of the paper.

    {v
    start → basic block builder → (trace selector) → code cache
              ↑                                        |
              └──── context switch ←── exit stub ←─────┘
                    (or stay in cache: direct link / indirect lookup)
    v}

    One dispatcher drives each application thread; code caches and all
    dispatch state are thread-private (paper §2).

    This module is the dispatch loop and its two exit handlers (direct
    linking, and the in-cache indirect-branch lookup): block building
    lives in {!Blockbuild} and trace selection in {!Trace}.  The
    dispatcher's safe points do
    the cross-cutting work — signal delivery, fault injection and
    audit, pending full flushes, and (under the FIFO policy) the
    fallback when incremental eviction cannot make room.

    The hot path (exit → lookup → re-enter) is engineered to be
    allocation-free on the host: fragment lookups are single probes of
    the unified open-addressing {!Fragindex}, and trap tokens resolve
    through a flat exit array. *)

open Isa
open Types
module FI = Fragindex

(* ------------------------------------------------------------------ *)
(* Safe-point services                                                *)
(* ------------------------------------------------------------------ *)

(* Push a value on the application stack of [ts]'s thread. *)
let push_app (rt : runtime) (ts : thread_state) v =
  let t = ts.thread in
  let sp = (Vm.Machine.get_reg t Reg.Esp - 4) land 0xFFFF_FFFF in
  Vm.Machine.set_reg t Reg.Esp sp;
  Vm.Memory.write_u32 (Vm.Machine.mem rt.machine) sp v

(* Deliver one pending signal, if any, at this safe point: push the
   interrupted application pc and redirect to the handler (all in app
   terms; the handler's code itself runs out of the code cache).
   Handlers outside application space are runtime damage (S34) — they
   are dropped, never delivered. *)
let rec deliver_signals (rt : runtime) (ts : thread_state) =
  match ts.thread.Vm.Machine.pending_signals with
  | [] -> ()
  | h :: rest ->
      ts.thread.Vm.Machine.pending_signals <- rest;
      if not (is_app_addr h) then begin
        rt.stats.Stats.spurious_signals_dropped <-
          rt.stats.Stats.spurious_signals_dropped + 1;
        log_flow rt "drop spurious signal -> 0x%x" h;
        deliver_signals rt ts
      end
      else begin
        push_app rt ts ts.next_tag;
        ts.next_tag <- h;
        rt.stats.Stats.signals_delivered <- rt.stats.Stats.signals_delivered + 1;
        log_flow rt "deliver signal -> 0x%x" h
      end

(* The application wrote over code it executed: flush the fragments
   built from [ranges].  A trace being generated that already stitched
   one of those blocks holds the stale instructions in its IL, so it is
   abandoned too (it would otherwise be emitted after the flush). *)
let smc_flush (rt : runtime) (ts : thread_state) ranges : fragment list =
  (match ts.tracegen with
   | Some tg when Emit.ranges_overlap ranges tg.tg_src ->
       Trace.abort_tracegen rt ts
   | _ -> ());
  Emit.flush_ranges rt ts ranges

(* ------------------------------------------------------------------ *)
(* Fragment lookup                                                    *)
(* ------------------------------------------------------------------ *)

(* Look up (or create) the fragment to run for [tag] outside trace
   generation, honouring trace-head counters.  One index probe serves
   the trace lookup, the bb lookup, and the head-counter bump. *)
let fragment_for_normal (rt : runtime) (ts : thread_state) tag : fragment =
  let e = FI.ensure ts.index tag in
  match e.FI.trace with
  | Some f ->
      log_flow rt "enter trace 0x%x" tag;
      f
  | None ->
      let frag =
        match e.FI.bb with
        | Some f -> f
        | None -> Blockbuild.build_bb rt ts tag
      in
      if (e.FI.head >= 0 || e.FI.marked) && rt.opts.Options.enable_traces then begin
        let c = 1 + (if e.FI.head >= 0 then e.FI.head else 0) in
        (* stamp the counter's first hit: build time divides the elapsed
           cycles by the count to tell tight-loop heads from heads that
           merely accumulated hits over the whole run *)
        if c = 1 then e.FI.head_cycles <- Vm.Machine.cycles rt.machine;
        e.FI.head <- c;
        if c >= rt.opts.Options.trace_threshold && ts.tracegen = None then begin
          Trace.start_tracegen rt ts tag;
          match Trace.tracegen_step rt ts ~next:tag with
          | Some f -> f
          | None -> frag
        end
        else frag
      end
      else frag

(* Full dispatch: trace generation first, then normal lookup.  Signal
   delivery happens once per safe point in the quantum loop, before
   this is called. *)
let rec fragment_for (rt : runtime) (ts : thread_state) : fragment =
  let tag = ts.next_tag in
  match ts.tracegen with
  | Some _ -> (
      match Trace.tracegen_step rt ts ~next:tag with
      | Some frag -> frag
      | None ->
          (* trace was finalized; dispatch [tag] normally (it may even
             start another trace) *)
          fragment_for rt ts)
  | None -> fragment_for_normal rt ts tag

(* ------------------------------------------------------------------ *)
(* Recovery ladder (S34)                                              *)
(* ------------------------------------------------------------------ *)

(** Graceful degradation for a damaged [tag], escalating one rung per
    detection: re-emit the fragment → flush every fragment built from
    its source ranges → request flush-the-world → demote the tag to
    permanent pure emulation.  Each rung strictly reduces how much the
    bad state can recur, so retries are bounded. *)
let recover_tag (rt : runtime) (ts : thread_state) ~tag ~(reason : string) :
    unit =
  rt.stats.Stats.faults_detected <- rt.stats.Stats.faults_detected + 1;
  let rung = Option.value (Hashtbl.find_opt rt.recover_attempts tag) ~default:0 in
  Hashtbl.replace rt.recover_attempts tag (rung + 1);
  let frags_of_tag () =
    match FI.find ts.index tag with
    | None -> []
    | Some e ->
        (match e.FI.trace with Some f -> [ f ] | None -> [])
        @ (match e.FI.bb with Some f -> [ f ] | None -> [])
  in
  let delete_tag () =
    List.iter
      (fun f -> if not f.deleted then Emit.delete_fragment rt ts f)
      (frags_of_tag ())
  in
  match rung with
  | 0 ->
      rt.stats.Stats.recover_reemit <- rt.stats.Stats.recover_reemit + 1;
      log_flow rt "recover 0x%x [re-emit]: %s" tag reason;
      delete_tag ()
  | 1 ->
      rt.stats.Stats.recover_flush_frag <- rt.stats.Stats.recover_flush_frag + 1;
      log_flow rt "recover 0x%x [flush-fragment]: %s" tag reason;
      let ranges =
        match List.concat_map (fun f -> f.src_ranges) (frags_of_tag ()) with
        | [] -> [ (tag, tag + 1) ]
        | rs -> rs
      in
      ignore (Emit.flush_ranges rt ts ranges)
  | 2 ->
      rt.stats.Stats.recover_flush_world <- rt.stats.Stats.recover_flush_world + 1;
      log_flow rt "recover 0x%x [flush-world]: %s" tag reason;
      delete_tag ();
      (* the full flush waits for the globally safe point the quantum
         loop already honours for capacity flushes *)
      rt.flush_pending <- true
  | _ ->
      rt.stats.Stats.recover_emulate <- rt.stats.Stats.recover_emulate + 1;
      log_flow rt "recover 0x%x [emulate-only]: %s" tag reason;
      delete_tag ();
      Hashtbl.replace rt.emulate_only tag ()

(* Run the auditor and heal every violation it reports, escalating the
   offender's ladder rung on each pass.  Deletion removes the offender
   from the audited set, so this converges; the iteration bound is a
   backstop only. *)
let audit_and_heal (rt : runtime) : unit =
  let rec go n =
    if n < 16 then
      match Audit.run rt with
      | Ok () -> ()
      | Error (f, msg) ->
          (match
             List.find_opt (fun ts -> ts.ts_tid = f.f_tid) rt.thread_states
           with
          | Some fts -> recover_tag rt fts ~tag:f.tag ~reason:msg
          | None ->
              rt.stats.Stats.faults_detected <-
                rt.stats.Stats.faults_detected + 1;
              rt.stats.Stats.recover_flush_world <-
                rt.stats.Stats.recover_flush_world + 1;
              rt.flush_pending <- true);
          go (n + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Exit handling and the per-thread quantum loop                      *)
(* ------------------------------------------------------------------ *)

type quantum_result = Q_budget | Q_thread_done | Q_fault of string | Q_deadline

(* Per-request watchdog poll (pool supervision, DESIGN.md §6.6).  The
   dispatcher is a safe point: no thread state is mid-update, so a
   preemption here leaves the instance resettable for reuse. *)
let watchdog_fired (rt : runtime) : bool =
  match rt.watchdog with None -> false | Some probe -> probe ()

(* Handle a direct exit: set next_tag, apply head heuristics, and link
   the exit to its target fragment when allowed.  One index probe
   serves the head heuristic and the link target lookup. *)
let handle_direct_exit (rt : runtime) (ts : thread_state) (e : exit_) =
  let target = e.target_tag in
  ts.next_tag <- target;
  let owner = match e.e_owner with Some f -> f | None -> rio_error "orphan exit" in
  (* speculation profiling / guard accounting (-O3, DESIGN.md §6.7) *)
  let is_guard =
    rt.opts.Options.opt_level >= 3
    && (not owner.deleted)
    &&
    match owner.kind with
    | Bb ->
        (* conditional exits of basic blocks feed the direction profile
           of their site; traps here are rare once linked, but exits
           targeting trace heads never link, which is exactly where the
           trace builder needs direction data *)
        if e.branch_is_cond then FI.record_successor ts.index owner.tag target;
        false
    | Trace -> (
        match guard_of_exit owner e.exit_id with
        | Some g ->
            g.g_violations <- g.g_violations + 1;
            rt.stats.Stats.spec_violations <- rt.stats.Stats.spec_violations + 1;
            (* burst accounting: only back-to-back misses spend the
               budget; isolated misses keep resetting the count *)
            let now = Vm.Machine.cycles rt.machine in
            if now - g.g_last_violation <= spec_burst_window then
              g.g_burst <- g.g_burst + 1
            else g.g_burst <- 1;
            g.g_last_violation <- now;
            log_flow rt "guard violated (const) trace 0x%x site 0x%x burst %d"
              owner.tag g.g_site g.g_burst;
            (* the budget is checked at the violation itself: a
               self-looping trace may never re-enter through the
               dispatcher where deferred re-optimization polls *)
            if g.g_burst >= rt.opts.Options.spec_max_violations then
              ignore (Opt.despeculate rt ts owner g);
            true
        | None -> false)
  in
  let te = FI.ensure ts.index target in
  (* backward direct branches identify loop heads (Dynamo's heuristic) *)
  if
    rt.opts.Options.enable_traces
    && owner.kind = Bb
    && target <= owner.tag
    && te.FI.trace = None
  then Trace.make_head_entry rt te;
  (* lazy linking: once the target fragment exists, patch the branch.
     Guard exits are never linked — each firing must keep trapping so
     violations are counted until the despeculation budget is hit. *)
  if
    rt.opts.Options.link_direct
    && ts.tracegen = None
    && (not owner.deleted)
    && (not is_guard)
    && e.linked = None
  then begin
    let target_frag =
      match te.FI.trace with
      | Some f -> Some f
      | None -> (
          match te.FI.bb with
          | Some f when te.FI.head < 0 && not te.FI.marked -> Some f
          | _ -> None)
    in
    match target_frag with
    | Some f when not f.deleted -> Emit.link rt e f
    | _ -> ()
  end

(* Handle an indirect exit: the in-cache indirect-branch lookup (paper
   §2.3).  The simulated in-cache hashtable is the [ibl] slot of the
   unified {!Fragindex}: a hit continues in the cache paying only the
   lookup cost; a miss (or disabled in-cache lookup) pays the full
   context switch and goes back to the dispatcher.

   At [-O3] this trap is also the speculation profiler's window onto
   indirect control flow: each indirect exit from a basic block feeds
   the owning site's successor profile, and each indirect exit that is
   a trace guard (the inline check's jne) is a guard violation. *)
let handle_indirect_exit (rt : runtime) (ts : thread_state) (e : exit_) :
    [ `Stay of fragment | `Dispatch ] =
  let mem = Vm.Machine.mem rt.machine in
  let target = Vm.Memory.read_u32 mem (tls_addr ~tid:ts.ts_tid ~slot:slot_ibl_target) in
  ts.next_tag <- target;
  if rt.opts.Options.opt_level >= 3 then begin
    match e.e_owner with
    | Some owner when not owner.deleted -> (
        match owner.kind with
        | Bb -> FI.record_successor ts.index owner.tag target
        | Trace -> (
            match guard_of_exit owner e.exit_id with
            | Some g ->
                g.g_violations <- g.g_violations + 1;
                rt.stats.Stats.spec_violations <-
                  rt.stats.Stats.spec_violations + 1;
                (* burst accounting: only back-to-back misses spend the
                   budget.  A guard that still hits most of the time
                   fires with long gaps and its burst keeps resetting;
                   a phase change fires it every iteration. *)
                let now = Vm.Machine.cycles rt.machine in
                if now - g.g_last_violation <= spec_burst_window then
                  g.g_burst <- g.g_burst + 1
                else g.g_burst <- 1;
                g.g_last_violation <- now;
                log_flow rt "guard violated (ind) trace 0x%x site 0x%x burst %d"
                  owner.tag g.g_site g.g_burst;
                (* the budget check happens here, at the violation,
                   because a self-looping trace may never re-enter
                   through the dispatcher where deferred
                   re-optimization polls *)
                if g.g_burst >= rt.opts.Options.spec_max_violations then
                  ignore (Opt.despeculate rt ts owner g)
            | None -> ()))
    | _ -> ()
  end;
  if rt.opts.Options.link_indirect && ts.tracegen = None then begin
    (* the in-cache hashtable lookup *)
    rt.stats.Stats.ibl_lookups <- rt.stats.Stats.ibl_lookups + 1;
    charge rt rt.opts.Options.costs.Options.ibl_lookup;
    match FI.find_ibl ts.index target with
    | Some f when not f.deleted ->
        log_flow rt "ibl hit 0x%x" target;
        `Stay f
    | _ ->
        rt.stats.Stats.ibl_misses <- rt.stats.Stats.ibl_misses + 1;
        log_flow rt "ibl miss 0x%x" target;
        `Dispatch
  end
  else `Dispatch

(* Run one scheduling quantum of [ts]'s thread. *)
let run_quantum (rt : runtime) (ts : thread_state) : quantum_result =
  let m = rt.machine in
  let t = ts.thread in
  let deadline = Vm.Machine.cycles m + rt.opts.Options.quantum in
  let budget () = deadline - Vm.Machine.cycles m in
  (* returns true to continue the quantum *)
  let rec from_dispatcher () =
    ts.in_cache <- false;
    if
      rt.flush_pending
      && List.for_all (fun o -> not o.in_cache) rt.thread_states
      && ts.tracegen = None
    then begin
      Emit.flush_all rt;
      charge rt rt.opts.Options.costs.Options.context_switch;
      log_flow rt "cache flush (capacity)"
    end;
    if budget () <= 0 then Q_budget
    else if watchdog_fired rt then Q_deadline
    else begin
      rt.stats.Stats.context_switches <- rt.stats.Stats.context_switches + 1;
      charge rt rt.opts.Options.costs.Options.context_switch;
      (* safe point: no thread state is mid-update and this thread is
         out of the cache — inject faults here, and audit right after
         any injection (plus on the configured period) so damage is
         healed before the cache is re-entered *)
      let injected = Faultinject.tick rt ts in
      if
        injected
        || (rt.opts.Options.audit_period > 0
            && rt.stats.Stats.context_switches mod rt.opts.Options.audit_period
               = 0)
      then audit_and_heal rt;
      log_flow rt "dispatch 0x%x" ts.next_tag;
      dispatch_next ()
    end
  and dispatch_next () =
    deliver_signals rt ts;
    if Hashtbl.mem rt.emulate_only ts.next_tag then begin
      (match ts.tracegen with
       | None -> ()
       | Some tg ->
           (* close out (or discard) the trace before leaving cache
              execution: its next block will never be a fragment *)
           if tg.tg_pending = P_start then Trace.abort_tracegen rt ts
           else ignore (Trace.finalize_trace rt ts tg));
      emulate_block ()
    end
    else
      match fragment_for rt ts with
      | frag -> enter frag
      | exception Instr.Bad_raw_bits { addr; msg } ->
          (* undecodable raw bits surfaced while building a fragment:
             heal whatever cache state fed them and retry (the ladder
             bounds the retries, ending in pure emulation) *)
          Trace.abort_tracegen rt ts;
          recover_tag rt ts ~tag:ts.next_tag
            ~reason:(Printf.sprintf "bad raw bits at 0x%x: %s" addr msg);
          from_dispatcher ()
      | exception Vm.Memory.Fault _ ->
          (* the block runs off the end of memory: interpret it, so the
             application faults exactly where it would natively *)
          Trace.abort_tracegen rt ts;
          emulate_block ()
      | exception Emit.No_room retry ->
          (* incremental eviction could not host the new basic block *)
          Trace.abort_tracegen rt ts;
          if retry then begin
            (* pinned fragments hold the region: fall back to
               flush-the-world once every thread is out of the cache.
               Ending the quantum lets the pinned threads run and exit;
               the charge keeps simulated time advancing. *)
            rt.flush_pending <- true;
            rt.stats.Stats.full_flush_fallbacks <-
              rt.stats.Stats.full_flush_fallbacks + 1;
            charge rt rt.opts.Options.costs.Options.context_switch;
            log_flow rt "no room for bb 0x%x: full flush requested" ts.next_tag;
            Q_budget
          end
          else
            (* an empty region cannot fit this block at all (option
               validation makes this unreachable for sane capacities) *)
            raise Emit.Cache_full
  and emulate_block () =
    (* ladder rung 4: this tag runs by pure interpretation, forever *)
    rt.stats.Stats.blocks_emulated <- rt.stats.Stats.blocks_emulated + 1;
    log_flow rt "emulate 0x%x" ts.next_tag;
    t.Vm.Machine.pc <- ts.next_tag;
    step_emulated ()
  and step_emulated () =
    if budget () <= 0 then begin
      ts.next_tag <- t.Vm.Machine.pc;
      Q_budget
    end
    else begin
      let pc0 = t.Vm.Machine.pc in
      let was_cti =
        match Decode.opcode_eflags (Vm.Memory.fetch (Vm.Machine.mem m)) pc0 with
        | Ok (op, _) -> Opcode.is_cti op
        | Error _ | (exception Vm.Memory.Fault _) -> false
      in
      (* a 1-cycle budget interprets exactly one instruction *)
      match Vm.Interp.run m t ~budget:1 ~emulate:true with
      | Vm.Interp.Budget ->
          if was_cti then begin
            (* block over: back to the dispatcher with the new tag *)
            ts.next_tag <- t.Vm.Machine.pc;
            from_dispatcher ()
          end
          else step_emulated ()
      | Vm.Interp.Halted ->
          log_flow rt "halted";
          Q_thread_done
      | Vm.Interp.Fault f -> Q_fault f
      | Vm.Interp.Smc _ ->
          let ranges = m.Vm.Machine.pending_smc in
          m.Vm.Machine.pending_smc <- [];
          let flushed = smc_flush rt ts ranges in
          log_flow rt "smc flush (emulated): %d fragments" (List.length flushed);
          step_emulated ()
      | Vm.Interp.Signal _ ->
          (* interception keeps signals pending for our safe points *)
          step_emulated ()
      | Vm.Interp.Ccall _ | Vm.Interp.Trap _ ->
          Q_fault
            (Printf.sprintf
               "emulated application code reached a runtime construct at 0x%x"
               pc0)
    end
  and enter (frag : fragment) =
    (* hot-trace re-optimization fires here, covering both dispatcher
       entries and IBL hits; ts.in_cache is still false, so the old
       body is unpinned while its replacement is emitted *)
    let frag = Opt.maybe_reoptimize rt ts frag in
    if frag.deleted then begin
      (* a replacement that found no room may have evicted the old
         body on the way: its space is reclaimed, so dispatch the tag
         afresh instead of entering it *)
      ts.next_tag <- frag.tag;
      from_dispatcher ()
    end
    else begin
      (match frag.kind with
       | Bb -> rt.stats.Stats.enters_bb <- rt.stats.Stats.enters_bb + 1
       | Trace -> rt.stats.Stats.enters_trace <- rt.stats.Stats.enters_trace + 1);
      t.Vm.Machine.pc <- frag.entry;
      resume ()
    end
  and resume () =
    ts.in_cache <- true;
    if budget () <= 0 then Q_budget
    else
      match Vm.Interp.run m t ~budget:(budget ()) ~emulate:false with
      | Vm.Interp.Budget -> Q_budget
      | Vm.Interp.Halted ->
          ts.in_cache <- false;
          log_flow rt "halted";
          Q_thread_done
      | Vm.Interp.Fault f ->
          ts.in_cache <- false;
          let pc = t.Vm.Machine.pc in
          if
            pc >= cache_base
            && String.length f >= 11
            && String.sub f 0 11 = "bad code at"
          then begin
            (* undecodable bytes inside the code cache: the cache, not
               the application, is damaged — heal and retry the block *)
            Trace.abort_tracegen rt ts;
            recover_tag rt ts ~tag:ts.next_tag ~reason:f;
            from_dispatcher ()
          end
          else Q_fault f
      | Vm.Interp.Signal h ->
          (* unreachable while interception is on (the VM defers
             signals to our safe points); if one surfaces anyway,
             re-queue it instead of dying *)
          ts.thread.Vm.Machine.pending_signals <-
            ts.thread.Vm.Machine.pending_signals @ [ h ];
          resume ()
      | Vm.Interp.Smc target ->
          (* the application wrote over executed code: flush the stale
             fragments, then continue where the hardware stopped *)
          let ranges = m.Vm.Machine.pending_smc in
          m.Vm.Machine.pending_smc <- [];
          let flushed = smc_flush rt ts ranges in
          log_flow rt "smc flush: %d fragments" (List.length flushed);
          (match
             List.find_opt
               (fun f -> target >= f.entry && target < f.total_end)
               flushed
           with
           | None -> resume ()
           | Some f when target = f.entry ->
               (* a linked branch pointed at the flushed fragment: we
                  know its application tag, so dispatch it fresh *)
               ts.next_tag <- f.tag;
               from_dispatcher ()
           | Some _ ->
               Q_fault
                 "self-modifying code rewrote the fragment currently executing")
      | Vm.Interp.Ccall { id; resume = rpc } -> (
          rt.stats.Stats.clean_calls <- rt.stats.Stats.clean_calls + 1;
          charge rt rt.opts.Options.costs.Options.clean_call;
          match Hashtbl.find_opt rt.ccalls id with
          | None -> Q_fault (Printf.sprintf "unknown clean call %d" id)
          | Some f ->
              Guard.protect rt ~hook:"clean_call" (fun () -> f { rt; ts });
              t.Vm.Machine.pc <- rpc;
              resume ())
      | Vm.Interp.Trap addr -> (
          charge rt rt.opts.Options.costs.Options.stub_exec;
          let id = (addr - trap_base) / 4 in
          match exit_of_id rt id with
          | None -> Q_fault (Printf.sprintf "unknown trap 0x%x" addr)
          | Some e -> (
              match e.e_kind with
              | Exit_direct ->
                  handle_direct_exit rt ts e;
                  from_dispatcher ()
              | Exit_indirect _ -> (
                  match handle_indirect_exit rt ts e with
                  | `Stay f -> enter f
                  | `Dispatch -> from_dispatcher ())))
  in
  if ts.in_cache && not rt.opts.Options.emulate then resume ()
  else if rt.opts.Options.emulate then begin
    (* Table 1 row 1: no cache; re-decode and charge overhead on every
       instruction *)
    t.Vm.Machine.pc <- ts.next_tag;
    match Vm.Interp.run m t ~budget:(budget ()) ~emulate:true with
    | Vm.Interp.Budget ->
        ts.next_tag <- t.Vm.Machine.pc;
        Q_budget
    | Vm.Interp.Halted -> Q_thread_done
    | Vm.Interp.Fault f -> Q_fault f
    | s -> Q_fault ("unexpected emulation stop: " ^ Vm.Interp.stop_to_string s)
  end
  else from_dispatcher ()

module For_testing = struct
  let recover_tag = recover_tag
end

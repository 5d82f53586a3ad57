(** Trace selection and generation (paper §2.4 / §3.3), split out of
    the dispatcher: trace-head promotion, block stitching, pending-CTI
    resolution, inline-check flags fixup, and trace finalization.

    Under a bounded FIFO cache a trace that no longer fits is simply
    {e dropped} — the constituent blocks keep running, the head's
    counter restarts, and no full flush is forced: basic blocks are the
    only fragments whose emission must succeed. *)

open Isa
open Types
module FI = Fragindex

(* ------------------------------------------------------------------ *)
(* Trace heads                                                        *)
(* ------------------------------------------------------------------ *)

(** Promote the tag of [e] to trace-head status: it loses its in-cache
    lookup entry and its incoming links, so every future execution
    passes through the dispatcher and bumps its counter. *)
let make_head_entry (rt : runtime) (e : fragment FI.entry) =
  if e.FI.head < 0 && not e.FI.marked then begin
    e.FI.head <- 0;
    rt.stats.Stats.trace_head_promotions <- rt.stats.Stats.trace_head_promotions + 1;
    (match e.FI.ibl with
     | Some f when f.kind = Bb -> e.FI.ibl <- None
     | _ -> ());
    match e.FI.bb with
    | Some frag -> List.iter (Emit.unlink rt) frag.incoming
    | None -> ()
  end

let make_head (rt : runtime) (ts : thread_state) tag =
  make_head_entry rt (FI.ensure ts.index tag)

(* ------------------------------------------------------------------ *)
(* Trace building                                                     *)
(* ------------------------------------------------------------------ *)

(* A head whose counter averaged at most this many elapsed cycles per
   hit on its way to threshold was spinning in a loop: its trace is
   worth optimizing the moment it is built. *)
let hot_head_cycles_per_hit = 500

let start_tracegen (rt : runtime) (ts : thread_state) head =
  ts.tracegen <-
    Some
      {
        tg_head = head;
        tg_tags = [];
        tg_src = [];
        tg_il = Instrlist.create ();
        tg_insns = 0;
        tg_pending = P_start;
        tg_checks = [];
        tg_guards = [];
      };
  log_flow rt "start trace 0x%x" head

(* Opcodes that end the [-O3] constant-load scan of a block's entry
   prefix (with any memory write): past one, a folded load might no
   longer see the value it was folded to. *)
let const_scan_stops (op : Opcode.t) : bool =
  Opcode.is_barrier op || Opcode.touches_stack op

(* Splice the client-view IL of block [tag]'s bb fragment into the
   growing trace, recording the new pending CTI. *)
let stitch_block (rt : runtime) (ts : thread_state) (tg : tracegen) tag : unit =
  let frag =
    match FI.find_bb ts.index tag with
    | Some f -> f
    | None -> Blockbuild.build_bb rt ts tag
  in
  let il = Emit.decode_fragment_il rt frag in
  (* peel the trailing exit structure *)
  let target_of (i : Instr.t) =
    match Insn.src (Instr.get_insn i) 0 with
    | Operand.Target t -> t
    | _ -> rio_error "trace stitch: malformed exit"
  in
  let last = Option.get (Instrlist.last il) in
  let pending =
    match Instr.get_opcode last with
    | Opcode.Hlt ->
        Instrlist.remove il last;
        P_halt
    | Opcode.Jmp -> (
        let t = target_of last in
        Instrlist.remove il last;
        match ind_kind_of_token t with
        | Some k -> P_ind k
        | None -> (
            (* is the (new) last instruction a conditional exit? *)
            match Instrlist.last il with
            | Some prev
              when (not (Instr.is_bundle prev))
                   && (match Instr.get_opcode prev with
                      | Opcode.Jcc _ -> true
                      | _ -> false) ->
                let c =
                  match Instr.get_opcode prev with
                  | Opcode.Jcc c -> c
                  | _ -> assert false
                in
                let taken = target_of prev in
                Instrlist.remove il prev;
                P_jcc (c, taken, t)
            | _ -> P_jmp t))
    | _ -> rio_error "trace stitch: block 0x%x does not end in an exit" tag
  in
  (* Speculative constant-load folding (-O3, DESIGN.md §6.7): in the
     block's entry prefix — before anything can write memory — loads
     from absolute application addresses are folded to their currently
     observed values, guarded by a compare at the block's entry whose
     side exit deoptimizes to the unoptimized block.  The head block is
     skipped: its tag resolves to this very trace once built, so a
     guard failure there would re-enter the trace and spin. *)
  if
    rt.opts.Options.opt_level >= 3
    && tg.tg_tags <> []
    (* a despeculation verdict for this site (learned here or loaded
       from a saved cache image) means a constant guard already died
       once — don't rebuild it *)
    && not (Fragindex.nospec ts.index tag)
  then begin
    let mem = Vm.Machine.mem rt.machine in
    let candidates = ref [] in
    let stop = ref false in
    Instrlist.iter il (fun i ->
        if not !stop then
          if Instr.is_bundle i then stop := true
          else begin
            let insn = Instr.get_insn i in
            (match (insn.Insn.opcode, insn.Insn.srcs, insn.Insn.dsts) with
             | Opcode.Mov, [| Operand.Mem m |], [| Operand.Reg _ |]
               when m.Operand.base = None
                    && m.Operand.index = None
                    && m.Operand.disp >= 0
                    && m.Operand.disp < tls_base
                    && List.length !candidates < 2
                    && not
                         (List.exists
                            (fun (_, m') -> Operand.equal_mem m m')
                            !candidates) ->
                 candidates := (i, m) :: !candidates
             | _ -> ());
            let writes_mem =
              Array.exists
                (function Operand.Mem _ -> true | _ -> false)
                insn.Insn.dsts
            in
            if writes_mem || const_scan_stops insn.Insn.opcode then
              stop := true
          end);
    List.iter
      (fun (i, (m : Operand.mem)) ->
        let v = Vm.Memory.read_u32 mem m.Operand.disp in
        let cmp = Create.cmp (Operand.Mem m) (Operand.Imm v) in
        let jne = Create.jcc Cond.NZ tag in
        Instrlist.append tg.tg_il cmp;
        Instrlist.append tg.tg_il jne;
        tg.tg_insns <- tg.tg_insns + 2;
        tg.tg_checks <- jne :: tg.tg_checks;
        let g =
          { g_site = tag; g_kind = G_const; g_exit_id = -1; g_violations = 0;
            g_last_violation = 0; g_burst = 0 }
        in
        tg.tg_guards <- (jne, g) :: tg.tg_guards;
        match Insn.dst (Instr.get_insn i) 0 with
        | Operand.Reg _ as r ->
            Instr.set_insn i (Insn.mk_mov r (Operand.Imm v))
        | _ -> assert false)
      (List.rev !candidates)
  end;
  tg.tg_insns <- tg.tg_insns + Instrlist.length il;
  Instrlist.append_all ~dst:tg.tg_il il;
  tg.tg_tags <- tag :: tg.tg_tags;
  tg.tg_src <- frag.src_ranges @ tg.tg_src;
  tg.tg_pending <- pending

(* Resolve the pending CTI knowing execution continued at [next]. *)
let resolve_pending (rt : runtime) (ts : thread_state) (tg : tracegen) ~next :
    unit =
  match tg.tg_pending with
  | P_start -> ()
  | P_halt -> rio_error "trace continued past hlt"
  | P_jmp t ->
      if t <> next then rio_error "trace stitch: jmp to 0x%x but executed 0x%x" t next
  | P_jcc (c, taken, ft) ->
      let exit_instr =
        if next = taken then Create.jcc (Cond.invert c) ft
        else if next = ft then Create.jcc c taken
        else rio_error "trace stitch: jcc targets 0x%x/0x%x but executed 0x%x" taken ft next
      in
      tg.tg_insns <- tg.tg_insns + 1;
      Instrlist.append tg.tg_il exit_instr
  | P_ind k ->
      (* inline the observed target with a check; flags handling is
         fixed up at finalize time when the whole trace is known *)
      let instrs =
        Mangle.inline_check ~tid:ts.ts_tid ~expected:next ~kind:k ~flags_live:false
      in
      List.iter
        (fun i ->
          tg.tg_insns <- tg.tg_insns + 1;
          Instrlist.append tg.tg_il i)
        instrs;
      (match List.rev instrs with
       | jne :: _ ->
           tg.tg_checks <- jne :: tg.tg_checks;
           (* At -O3 the inline check becomes a tracked speculative
              guard when the site's successor profile says today's
              target is the dominant one: the side exit then counts
              violations and, past the budget, the dominant-target
              assumption is despeculated away.  A polymorphic site (or
              one without enough profile) keeps the plain check — it is
              expected to miss sometimes, so despeculating it would
              only trade a cheap compare for an unconditional IBL
              exit. *)
           if rt.opts.Options.opt_level >= 3 then begin
             let site =
               match tg.tg_tags with t :: _ -> t | [] -> tg.tg_head
             in
             match FI.successor_profile ts.index site with
             | Some p
               when p.FI.p_total >= rt.opts.Options.spec_threshold
                    && p.FI.p_n1 * 4 >= p.FI.p_total * 3
                    && p.FI.p_t1 = next ->
                 let g =
                   { g_site = site; g_kind = G_ind k; g_exit_id = -1;
                     g_violations = 0; g_last_violation = 0; g_burst = 0 }
                 in
                 tg.tg_guards <- (jne, g) :: tg.tg_guards
             | _ -> ()
           end
       | [] -> assert false)

(* Materialize the final pending CTI as trace exits.  At [-O3] the
   last conditional exit's polarity is biased by the site's successor
   profile: the default layout [jcc taken; jmp ft] makes the
   fall-through path pay two CTIs, so when profiling shows the
   fall-through is the dominant successor, the condition is inverted
   and the operands swapped — the hot side then leaves through the
   single jcc.  Pure layout, no guard: both successors keep direct,
   linkable exits, so a wrong profile costs one extra jmp, never a
   deopt. *)
let finalize_pending (rt : runtime) (ts : thread_state) (tg : tracegen) : unit
    =
  let app i = Instrlist.append tg.tg_il i in
  match tg.tg_pending with
  | P_start -> rio_error "empty trace"
  | P_halt -> app (Create.of_insn (Insn.mk_hlt ()))
  | P_jmp t -> app (Create.jmp t)
  | P_jcc (c, taken, ft) ->
      let bias_to_ft =
        rt.opts.Options.opt_level >= 3
        &&
        match tg.tg_tags with
        | site :: _ -> (
            match FI.successor_profile ts.index site with
            | Some p
              when p.FI.p_total >= rt.opts.Options.spec_threshold
                   && p.FI.p_n1 * 4 >= p.FI.p_total * 3 ->
                p.FI.p_t1 = ft
            | _ -> false)
        | [] -> false
      in
      if bias_to_ft then begin
        rt.stats.Stats.spec_exit_biases <-
          rt.stats.Stats.spec_exit_biases + 1;
        app (Create.jcc (Cond.invert c) ft);
        app (Create.jmp taken)
      end
      else begin
        app (Create.jcc c taken);
        app (Create.jmp ft)
      end
  | P_ind k -> app (Create.jmp (ind_token k))

(* For every inline check inserted without flags preservation, scan
   forward: if the application flags are live at the check, bracket it
   with save/restore and attach the stub restore. *)
let fixup_check_flags (rt : runtime) (ts : thread_state) (tg : tracegen) : unit =
  let il = tg.tg_il in
  let fslot = Mangle.abs_slot ~tid:ts.ts_tid slot_eflags in
  List.iter
    (fun (jne : Instr.t) ->
      (* the check is [cmp; jne]; flags are live if anything after the
         jne reads them before writing *)
      let after = jne.Instr.next in
      if
        rt.opts.Options.always_save_flags
        || not (Flags_analysis.dead_after after)
      then begin
        let cmp = Option.get jne.Instr.prev in
        Instrlist.insert_before il cmp (Create.pushf ());
        Instrlist.insert_before il cmp (Create.pop fslot);
        Instrlist.insert_after il jne (Create.popf ());
        Instrlist.insert_after il jne (Create.push fslot);
        let stub = Instrlist.create () in
        Instrlist.append stub (Create.push fslot);
        Instrlist.append stub (Create.popf ());
        jne.Instr.note <- Instr.Any_note (Stub_note (stub, false));
        tg.tg_insns <- tg.tg_insns + 4
      end)
    tg.tg_checks

(** Close out a trace: run the trace hook, mangle, and emit.  Returns
    [None] when a bounded FIFO cache could not host the trace — the
    trace is dropped, the head's counter restarts, and execution
    continues on the constituent blocks. *)
let finalize_trace (rt : runtime) (ts : thread_state) (tg : tracegen) :
    fragment option =
  finalize_pending rt ts tg;
  fixup_check_flags rt ts tg;
  let head = tg.tg_head in
  let il = tg.tg_il in
  (* the client sees the completely processed trace (paper §3.3);
     instructions are fully decoded with raw bits valid (Level 3) *)
  Instrlist.decode_to il Level.L3;
  let il =
    match rt.client.trace_hook with
    | Some hook ->
        Guard.protect_il rt ~hook:"trace" il (fun il ->
            hook { rt; ts } ~tag:head il)
    | None -> il
  in
  (* Hot traces get the pass pipeline at finalize time; cold ones are
     emitted unoptimized and only pay for passes if they later prove
     hot by re-entry (Opt.maybe_reoptimize) — the unconditional
     finalize-time run was the source of the -O2 per-bench regressions
     on build-dominated workloads, whose many one-shot traces can
     never amortize the pass cost.  Hot here means the trace will
     iterate: either it jumps back to its own head, or its head
     counter reached threshold in a tight cycle window (a loop spread
     over several traces circulates internally once they link, so
     entry-count deferral would never see it get hot). *)
  let is_loop =
    let found = ref false in
    Instrlist.iter il (fun i ->
        if not (Instr.is_bundle i) then
          Array.iter
            (function
              | Operand.Target t when t = head -> found := true
              | _ -> ())
            (Instr.get_insn i).Insn.srcs);
    !found
  in
  let hot_head =
    match FI.find ts.index head with
    | Some e when e.FI.head > 0 ->
        (Vm.Machine.cycles rt.machine - e.FI.head_cycles) / e.FI.head
        <= hot_head_cycles_per_hit
    | _ -> false
  in
  let pre_opted =
    (is_loop || hot_head) && Options.effective_passes rt.opts <> []
  in
  if pre_opted then Opt.run rt il;
  charge_opt rt
    (Instrlist.length il * rt.opts.Options.costs.Options.trace_build_per_insn);
  Mangle.mangle_il ~tid:ts.ts_tid il;
  match Emit.emit_fragment rt ts ~kind:Trace ~tag:head ~src_ranges:tg.tg_src il with
  | exception Emit.No_room _ ->
      (* the trace region cannot host it even after evicting: drop the
         trace rather than force a full flush — only bb emission is a
         hard requirement.  Restarting the head counter keeps a still-hot
         head eligible for re-selection once the cache churns. *)
      rt.stats.Stats.traces_dropped <- rt.stats.Stats.traces_dropped + 1;
      (match FI.find ts.index head with
       | Some e when e.FI.head >= 0 -> e.FI.head <- 0
       | _ -> ());
      ts.tracegen <- None;
      log_flow rt "dropped trace 0x%x (no room)" head;
      None
  | frag ->
      rt.stats.Stats.traces_built <- rt.stats.Stats.traces_built + 1;
      if pre_opted then frag.reopted <- true;
      (* bind speculative guards to their emitted exits: body exits
         occupy the head of [frag.exits] in IL order, so the n-th exit
         CTI of the final IL is [frag.exits.(n)].  A guard whose jne
         did not survive to emission (a client hook rebuilt the IL) is
         silently dropped — never speculative, always safe. *)
      if tg.tg_guards <> [] then begin
        let ord = ref (-1) in
        let bound = ref [] in
        Instrlist.iter il (fun i ->
            if Emit.exit_info i <> None then begin
              incr ord;
              match List.assq_opt i tg.tg_guards with
              | Some g when !ord < Array.length frag.exits ->
                  g.g_exit_id <- frag.exits.(!ord).exit_id;
                  bound := g :: !bound;
                  let s = rt.stats in
                  (match g.g_kind with
                   | G_ind _ ->
                       s.Stats.spec_guards_ind <- s.Stats.spec_guards_ind + 1
                   | G_const ->
                       s.Stats.spec_guards_const <- s.Stats.spec_guards_const + 1)
              | _ -> ()
            end);
        frag.guards <- List.rev !bound;
        if frag.guards <> [] then
          rt.stats.Stats.spec_traces <- rt.stats.Stats.spec_traces + 1
      end;
      (* the trace shadows the head's bb: lookups prefer traces, the ibl
         entry moves to the trace, and the bb's links are already severed
         (it is a head).  Targets of the trace's direct exits become heads. *)
      FI.set_ibl ts.index head frag;
      Array.iter
        (fun e ->
          match e.e_kind with
          | Exit_direct ->
              if
                e.target_tag <> head
                && FI.find_trace ts.index e.target_tag = None
              then make_head rt ts e.target_tag
          | Exit_indirect _ -> ())
        frag.exits;
      ts.tracegen <- None;
      log_flow rt "built trace 0x%x (%d blocks)" head (List.length tg.tg_tags);
      Some frag

(* Default end-of-trace test (paper §3.5: stop at a backward branch —
   approximated as reaching another trace head — or an existing trace). *)
let default_end (rt : runtime) (ts : thread_state) (tg : tracegen) ~next =
  FI.find_trace ts.index next <> None
  || FI.is_head ts.index next
  || List.length tg.tg_tags >= rt.opts.Options.max_trace_blocks

(* One dispatcher step while generating a trace.  Returns the fragment
   to execute next (always the bb for [next], unlinked). *)
let tracegen_step (rt : runtime) (ts : thread_state) ~next : fragment option =
  let tg = match ts.tracegen with Some tg -> tg | None -> assert false in
  let should_end =
    if tg.tg_pending = P_start then false (* always take the head block *)
    else if tg.tg_pending = P_halt then true
    else
      match rt.client.end_trace with
      | None -> default_end rt ts tg ~next
      | Some hook -> (
          match
            Guard.protect_end_trace rt ~hook:"end_trace" ~default:Default_end
              (fun () -> hook { rt; ts } ~trace_tag:tg.tg_head ~next_tag:next)
          with
          | End_trace -> true
          | Continue_trace -> false
          | Default_end -> default_end rt ts tg ~next)
  in
  if should_end || tg.tg_pending = P_halt then begin
    ignore (finalize_trace rt ts tg);
    None (* re-dispatch [next] normally *)
  end
  else begin
    resolve_pending rt ts tg ~next;
    stitch_block rt ts tg next;
    if tg.tg_pending = P_halt then begin
      (* block ends the program: close the trace now *)
      ignore (finalize_trace rt ts tg)
    end;
    (* execute the constituent block, unlinked, so control returns to
       the dispatcher to observe where execution goes *)
    let frag =
      match FI.find_bb ts.index next with
      | Some f -> f
      | None -> Blockbuild.build_bb rt ts next
    in
    Array.iter (fun e -> Emit.unlink rt e) frag.exits;
    Some frag
  end

(* Discard an in-progress trace generation (used when a constituent
   block turned out to be damaged mid-stitch, or when bb emission ran
   out of room). *)
let abort_tracegen (rt : runtime) (ts : thread_state) =
  match ts.tracegen with
  | None -> ()
  | Some _ ->
      ts.tracegen <- None;
      log_flow rt "abort trace generation"

module For_testing = struct
  let const_scan_stops = const_scan_stops
end

(** Fragment emission, linking, deletion, eviction, and cache-resident
    decoding.

    A fragment's cache image is:

    {v
    entry:      body instructions (exit CTIs forced to rel32 forms)
    body_end:   stub 0: [custom preamble] jmp <trap token 0>
                stub 1: ...
    total_end:
    v}

    Exit CTIs initially target their stub; {!link} patches the CTI (or,
    for always-through-stub exits, the stub's final jump) to the target
    fragment's entry, and {!unlink} restores it.  Exit branches and stub
    jumps are always written in their fixed long forms
    ({!Isa.Encode.write_jmp_rel32}), so every patch rewrites only a
    rel32 in place.

    Cache space comes from one of two allocators (DESIGN.md §6.3): the
    historical bump allocator ([rt.cache_cursor]) when the cache is
    unbounded or under the full flush policy, or a pair of bounded
    {!Cachealloc} regions (basic blocks / traces) under the FIFO
    policy, where emission reclaims the oldest unpinned fragments until
    the new one fits. *)

open Isa
open Types

(* An exit CTI is any direct jmp/jcc whose target leaves the fragment:
   an application address or an IND pseudo-token. *)
let exit_info (i : Instr.t) : (exit_kind * int * bool) option =
  if Instr.is_bundle i then None
  else
    match Instr.get_opcode i with
    | Opcode.Jmp | Opcode.Jcc _ -> (
        let insn = Instr.get_insn i in
        let is_cond = match insn.Insn.opcode with Opcode.Jcc _ -> true | _ -> false in
        match Insn.src insn 0 with
        | Operand.Target t -> (
            match ind_kind_of_token t with
            | Some k -> Some (Exit_indirect k, 0, is_cond)
            | None ->
                if is_app_addr t then Some (Exit_direct, t, is_cond)
                else rio_error "exit CTI with target 0x%x outside app space" t)
        | _ -> None)
    | _ -> None

let stub_note (i : Instr.t) : (Instrlist.t option * bool) =
  match i.Instr.note with
  | Instr.Any_note (Stub_note (il, always)) -> (Some il, always)
  | _ -> (None, false)

(* The runtime's own code writes (emission, link patches, warm-boot
   loads) are not application writes: they bypass the write-watch,
   which would otherwise stop the interpreter with an SMC trap whose
   flush finds nothing, and invalidate exactly the decodes they
   overwrite. *)
let write_bytes (rt : runtime) ~addr (b : Bytes.t) =
  Vm.Memory.blit_bytes_raw (Vm.Machine.mem rt.machine) ~src:b ~src_pos:0
    ~dst:addr ~len:(Bytes.length b);
  Vm.Machine.invalidate_icache rt.machine ~addr ~len:(Bytes.length b)

(** The one definition of a patchable exit site: the length of the
    long-form [jmp]/[jcc] at [pc], or [None].  Everything that re-targets
    a site ({!patch_branch}: link, unlink, moves, image loads, fault
    injection) and everything that picks one (the fault injector) uses
    it. *)
let patch_site_len (rt : runtime) ~pc : int option =
  match Encode.long_branch_len (Vm.Memory.fetch (Vm.Machine.mem rt.machine)) pc with
  | 0 -> None
  | len -> Some len

(* Re-target the long-form branch at [pc]: only its rel32 changes. *)
let patch_branch (rt : runtime) ~pc ~target =
  let mem = Vm.Machine.mem rt.machine in
  match patch_site_len rt ~pc with
  | None ->
      if Encode.is_short_branch (Vm.Memory.fetch mem) pc then
        rio_error "patch_branch: length drift at 0x%x" pc
      else rio_error "patch_branch: not a direct branch at 0x%x" pc
  | Some len ->
      let rel = Bytes.create 4 in
      Encode.write_rel32 rel ~off:0 ~next_pc:(pc + len) target;
      Vm.Memory.blit_bytes_raw mem ~src:rel ~src_pos:0 ~dst:(pc + len - 4) ~len:4;
      Vm.Machine.invalidate_icache rt.machine ~addr:pc ~len

(* ------------------------------------------------------------------ *)
(* Linking                                                            *)
(* ------------------------------------------------------------------ *)

(* Every legitimate patch of an exit's bytes re-stamps the owning
   fragment's checksum, so the auditor only flags foreign writes. *)
let refresh_owner (rt : runtime) (e : exit_) =
  match e.e_owner with Some f -> Audit.refresh rt f | None -> ()

let link (rt : runtime) (e : exit_) (target : fragment) : unit =
  if e.linked <> None then rio_error "link: exit already linked";
  if target.deleted then rio_error "link: target deleted";
  e.linked <- Some target;
  target.incoming <- e :: target.incoming;
  if e.always_through_stub then patch_branch rt ~pc:e.stub_jmp_pc ~target:target.entry
  else patch_branch rt ~pc:e.branch_pc ~target:target.entry;
  refresh_owner rt e;
  rt.stats.Stats.direct_links <- rt.stats.Stats.direct_links + 1

let unlink (rt : runtime) (e : exit_) : unit =
  match e.linked with
  | None -> ()
  | Some target ->
      e.linked <- None;
      target.incoming <- List.filter (fun x -> x != e) target.incoming;
      (try
         if e.always_through_stub then
           patch_branch rt ~pc:e.stub_jmp_pc ~target:(token_of_exit e)
         else patch_branch rt ~pc:e.branch_pc ~target:e.stub_pc
       with
      | Rio_error _
        when (match e.e_owner with Some f -> f.deleted | None -> false) ->
          (* sabotaged branch bytes on a fragment being torn down: the
             site is no longer a long branch, and will never execute
             again *)
          ());
      refresh_owner rt e;
      rt.stats.Stats.unlinks <- rt.stats.Stats.unlinks + 1

(* ------------------------------------------------------------------ *)
(* Deletion                                                           *)
(* ------------------------------------------------------------------ *)

(** Remove a fragment: unlink everything in and out, drop table
    entries, fire the client hook (exactly once — the [deleted] flag
    guards every deletion path).  Under the FIFO policy the cache bytes
    are reclaimed later, when the fragment reaches the front of its age
    queue; under the bump allocator space is only reclaimed by a full
    flush. *)
let delete_fragment (rt : runtime) (ts : thread_state) (frag : fragment) : unit =
  if not frag.deleted then begin
    (* marked first: if the fragment's own bytes were corrupted, unlink
       of its exits may find an undecodable patch site and must know
       the fragment is already condemned *)
    frag.deleted <- true;
    List.iter (fun e -> unlink rt e) frag.incoming;
    Array.iter (fun e -> unlink rt e) frag.exits;
    Array.iter (fun e -> drop_exit rt e) frag.exits;
    (match Fragindex.find ts.index frag.tag with
     | None -> ()
     | Some en ->
         (match frag.kind with
          | Bb -> (
              match en.Fragindex.bb with
              | Some f when f == frag -> en.Fragindex.bb <- None
              | _ -> ())
          | Trace -> (
              match en.Fragindex.trace with
              | Some f when f == frag -> en.Fragindex.trace <- None
              | _ -> ()));
         (match en.Fragindex.ibl with
          | Some f when f == frag -> en.Fragindex.ibl <- None
          | _ -> ());
         (* no ghost entries: once nothing lives under the key — no
            fragment of either kind, no ibl target, no trace-head
            counter or client mark — drop it from the index entirely.
            Trace heads deliberately keep their entry (and counter). *)
         if
           en.Fragindex.bb = None && en.Fragindex.trace = None
           && en.Fragindex.ibl = None && en.Fragindex.head < 0
           && not en.Fragindex.marked
         then Fragindex.delete ts.index frag.tag);
    rt.stats.Stats.fragments_deleted <- rt.stats.Stats.fragments_deleted + 1;
    match rt.client.fragment_deleted with
    | Some hook ->
        Guard.protect rt ~hook:"fragment_deleted" (fun () ->
            hook { rt; ts } ~tag:frag.tag)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Allocation                                                         *)
(* ------------------------------------------------------------------ *)

exception Cache_full
(** The runtime's own address region is exhausted — fatal. *)

exception No_room of bool
(** A bounded FIFO region could not host the fragment even after
    evicting every unpinned fragment.  The payload is [true] when
    pinned fragments were skipped — a full flush at the next globally
    safe point would still make room — and [false] when the region
    simply cannot fit a fragment of this size.  Trace emission drops
    the trace on either; basic-block emission requests the flush and
    retries, or surfaces {!Cache_full}. *)

let owner_ts (rt : runtime) (f : fragment) ~(fallback : thread_state) =
  match List.find_opt (fun ts -> ts.ts_tid = f.f_tid) rt.thread_states with
  | Some ts -> ts
  | None -> fallback

(* ------------------------------------------------------------------ *)
(* Relocation: moving a live fragment                                  *)
(* ------------------------------------------------------------------ *)

(** Move a live fragment's cache image to [dst] and fix up everything
    that addressed the old placement, by replaying the fragment's
    relocation table:

    - the body and stub bytes are copied (the ranges may overlap — the
      whole image is read out first);
    - every pc-relative site ([RT_exit_branch] / [RT_stub_jmp]) has its
      rel32 rewritten at its new address against its current logical target
      (linked peer's entry, own stub, or trap token — the link state in
      the exit records, which a move does not change);
    - absolute-memory operands ([RT_tls_abs] / [RT_runtime_abs]) encode
      addresses outside the cache and need no fixup;
    - inbound links (the fragment's [incoming] list) are re-pointed at
      the new entry;
    - a preempted thread resuming inside the fragment has its pc slid
      by the same delta.  Transparency guarantees this is the only
      cache address in thread state: application registers and stacks
      never hold cache addresses, so a pinned fragment is movable —
      which is exactly what lets compaction consolidate free space
      around fragments FIFO eviction must skip. *)
let move_fragment (rt : runtime) (f : fragment) ~(dst : int) : unit =
  if dst <> f.entry then begin
    let old_entry = f.entry in
    let len = f.total_end - f.entry in
    let delta = dst - old_entry in
    let mem = Vm.Machine.mem rt.machine in
    let image = Vm.Memory.read_bytes mem ~addr:old_entry ~len in
    Vm.Memory.blit_bytes_raw mem ~src:image ~src_pos:0 ~dst ~len;
    Vm.Machine.invalidate_icache rt.machine ~addr:old_entry ~len;
    Vm.Machine.invalidate_icache rt.machine ~addr:dst ~len;
    (* preempted threads resume at a cache pc inside the old image *)
    List.iter
      (fun ts ->
        if ts.in_cache then begin
          let pc = ts.thread.Vm.Machine.pc in
          if pc >= old_entry && pc < old_entry + len then
            ts.thread.Vm.Machine.pc <- pc + delta
        end)
      rt.thread_states;
    f.entry <- dst;
    f.body_end <- f.body_end + delta;
    f.total_end <- dst + len;
    Array.iter
      (fun e ->
        e.branch_pc <- e.branch_pc + delta;
        e.stub_pc <- e.stub_pc + delta;
        e.stub_jmp_pc <- e.stub_jmp_pc + delta)
      f.exits;
    (* replay pc-relative relocations at their new sites.  Self-links
       resolve through [f.entry], already updated above. *)
    Array.iter
      (fun r ->
        match r.r_target with
        | RT_exit_branch ord ->
            let e = f.exits.(ord) in
            let target =
              match e.linked with
              | Some tgt when not e.always_through_stub -> tgt.entry
              | _ -> e.stub_pc
            in
            patch_branch rt ~pc:e.branch_pc ~target
        | RT_stub_jmp ord ->
            let e = f.exits.(ord) in
            let target =
              match e.linked with
              | Some tgt when e.always_through_stub -> tgt.entry
              | _ -> token_of_exit e
            in
            patch_branch rt ~pc:e.stub_jmp_pc ~target
        | RT_tls_abs _ | RT_runtime_abs _ -> ())
      f.relocs;
    (* inbound links follow the entry *)
    List.iter
      (fun e ->
        match e.e_owner with
        | Some o when o.deleted -> ()
        | _ ->
            if e.always_through_stub then
              patch_branch rt ~pc:e.stub_jmp_pc ~target:dst
            else patch_branch rt ~pc:e.branch_pc ~target:dst;
            refresh_owner rt e)
      f.incoming;
    Audit.refresh rt f;
    rt.stats.Stats.fragments_moved <- rt.stats.Stats.fragments_moved + 1;
    rt.stats.Stats.moved_bytes <- rt.stats.Stats.moved_bytes + len;
    charge rt rt.opts.Options.costs.Options.evict_fragment;
    log_flow rt "compact: move %s 0x%x 0x%x -> 0x%x"
      (match f.kind with Bb -> "bb" | Trace -> "trace")
      f.tag old_entry dst
  end

(** Compact a bounded FIFO region: reclaim deleted-but-unreclaimed
    queue entries immediately (instead of at their FIFO turn), then
    slide every remaining fragment — pinned ones included — down over
    the free holes in ascending address order, so the region's free
    space coalesces toward the top.  FIFO age order is preserved: the
    queue is rebuilt with the survivors in their original order. *)
let compact_region (rt : runtime) region queue : unit =
  let kept = ref [] in
  let drained = ref [] in
  while not (Queue.is_empty queue) do
    drained := Queue.pop queue :: !drained
  done;
  List.iter
    (fun f ->
      (* a deleted fragment still pinning a preempted thread (delayed
         delete) keeps its space and its queue slot; any other deleted
         entry's run is reclaimed here *)
      if f.deleted && not (thread_inside rt f) then
        ignore (Cachealloc.free region ~addr:f.entry)
      else kept := f :: !kept)
    (List.rev !drained);
  let kept = List.rev !kept in
  let by_addr = List.sort (fun a b -> compare a.entry b.entry) kept in
  List.iter
    (fun f ->
      (* a pinned dead body (delayed delete) is an immovable obstacle:
         its link graph is already torn down, so relocation replay
         cannot re-derive its branch targets — it just stays put *)
      if not f.deleted then
        let dst = Cachealloc.slide_down region ~addr:f.entry in
        move_fragment rt f ~dst)
    by_addr;
  List.iter (fun f -> Queue.push f queue) kept;
  rt.stats.Stats.compactions <- rt.stats.Stats.compactions + 1;
  log_flow rt "compact: region now %d holes, largest %d"
    (Cachealloc.holes region)
    (Cachealloc.largest_free_bytes region)

(* Allocate [bytes] in a bounded FIFO region, reclaiming the oldest
   fragments until it fits.  Queue entries come in two flavours:
   already-deleted fragments (replaced, SMC-flushed, recovered) whose
   space was merely not yet reclaimed, and live fragments, which are
   deleted here (firing the client hook and repairing incoming links
   via delete_fragment).  A pinned fragment — some preempted thread
   resumes inside it (Types.thread_inside) — is never touched: it is
   re-queued at the back and effectively treated as young.

   With [cache_compaction] on, fragmentation is answered by compaction
   instead of eviction: if the region holds enough free bytes but no
   hole is large enough, live fragments are slid together first; and
   when eviction runs out of victims (everything left is pinned), one
   compaction pass is the last resort before [No_room]. *)
let alloc_fifo (rt : runtime) (ts : thread_state) region queue bytes : int =
  let compacting = rt.opts.Options.cache_compaction in
  match Cachealloc.alloc region bytes with
  | Some a -> a
  | None -> (
      (* fragmentation, not capacity: enough free bytes exist in total *)
      if compacting && Cachealloc.free_bytes region >= bytes then
        compact_region rt region queue;
      match Cachealloc.alloc region bytes with
      | Some a -> a
      | None ->
          let skipped = ref [] in
          let requeue () =
            List.iter (fun f -> Queue.push f queue) (List.rev !skipped);
            skipped := []
          in
          let rec go () =
            match Cachealloc.alloc region bytes with
            | Some a -> a
            | None -> (
                match Queue.take_opt queue with
                | None -> (
                    (* everything evictable is gone; whether pinned
                       fragments hold the rest decides if a full flush
                       can still help — the caller's policy, not ours *)
                    let retry = !skipped <> [] in
                    requeue ();
                    (* the free space may merely be sharded around the
                       pinned survivors: compaction moves them too *)
                    let last =
                      if compacting then begin
                        compact_region rt region queue;
                        Cachealloc.alloc region bytes
                      end
                      else None
                    in
                    match last with
                    | Some a -> a
                    | None -> raise (No_room retry))
                | Some f ->
                    if thread_inside rt f then begin
                      skipped := f :: !skipped;
                      go ()
                    end
                    else begin
                      if not f.deleted then begin
                        delete_fragment rt (owner_ts rt f ~fallback:ts) f;
                        rt.stats.Stats.evictions <- rt.stats.Stats.evictions + 1;
                        rt.stats.Stats.evicted_bytes <-
                          rt.stats.Stats.evicted_bytes + (f.total_end - f.entry);
                        charge rt rt.opts.Options.costs.Options.evict_fragment;
                        log_flow rt "evict %s 0x%x"
                          (match f.kind with Bb -> "bb" | Trace -> "trace")
                          f.tag
                      end;
                      ignore (Cachealloc.free region ~addr:f.entry);
                      go ()
                    end)
          in
          let a = go () in
          requeue ();
          a)

let alloc (rt : runtime) (ts : thread_state) ~(kind : fragment_kind) n =
  match rt.cache_alloc with
  | None ->
      (* unbounded cache, or a bounded one under the full flush policy:
         bump allocation with a soft capacity check (the fragment being
         built must land somewhere; the flush happens at the next
         globally safe point) *)
      let a = rt.cache_cursor in
      if a + n > rt.heap_cursor then raise Cache_full;
      (match rt.opts.Options.cache_capacity with
       | Some cap when a + n - cache_base > cap -> rt.flush_pending <- true
       | _ -> ());
      rt.cache_cursor <- a + n;
      a
  | Some (bb_region, trace_region) -> (
      match kind with
      | Bb -> alloc_fifo rt ts bb_region rt.fifo_bb n
      | Trace -> alloc_fifo rt ts trace_region rt.fifo_trace n)

(** Refresh the free-list gauges in {!Stats} from the live allocators
    (no-op under the bump allocator). *)
let refresh_cache_gauges (rt : runtime) : unit =
  match rt.cache_alloc with
  | None -> ()
  | Some (bb_region, trace_region) ->
      rt.stats.Stats.freelist_holes <-
        Cachealloc.holes bb_region + Cachealloc.holes trace_region;
      rt.stats.Stats.freelist_free_bytes <-
        Cachealloc.free_bytes bb_region + Cachealloc.free_bytes trace_region;
      rt.stats.Stats.freelist_largest_hole <-
        max
          (Cachealloc.largest_free_bytes bb_region)
          (Cachealloc.largest_free_bytes trace_region)

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)
(* ------------------------------------------------------------------ *)

(* Runtime-absolute memory operands of an instruction already at Full
   level (mangle- or client-inserted code, and re-decoded bodies): a
   TLS slot (spills, flags saves, the client tls_field) or a runtime
   heap cell (client globals, profiling counters).  App-origin
   instructions below L3 can only reference application space, so they
   are not decoded just to scan them. *)
let scan_abs ~off (i : Instr.t) (acc : reloc list) : reloc list =
  match Instr.level i with
  | Level.L3 | Level.L4 ->
      let insn = Instr.get_insn i in
      let op acc (o : Operand.t) =
        match o with
        | Operand.Mem { base = None; index = None; disp } when disp >= tls_base ->
            let r_target =
              match tls_slot_of_addr disp with
              | Some (tid, slot) -> RT_tls_abs (tid, slot)
              | None -> RT_runtime_abs disp
            in
            { r_off = off; r_target } :: acc
        | _ -> acc
      in
      Array.fold_left op (Array.fold_left op acc insn.Insn.srcs) insn.Insn.dsts
  | _ -> acc

let has_target (insn : Insn.t) =
  Array.exists (function Operand.Target _ -> true | _ -> false) insn.Insn.srcs

(** Emit a client-view (already mangled) IL as a fragment for [tag].

    Exit CTIs may appear both in the body and inside custom stubs
    (one level deep) — the latter is how a client builds a "code
    sequence at the bottom of the trace" reached only on an exit path
    (paper §4.3).  Registers the fragment; does not link.

    Two walks visit the instructions in image order (the body, then
    each exit's stub in exit order).  The first plans the exits and
    lays the image out at entry-relative offsets; every length is
    pc-independent, since exit CTIs and stub jumps take their fixed
    rel32 forms.  Once the cache space is allocated, the second writes
    each instruction into one buffer of the final size: raw bits are
    blitted (§3.1: copied, not re-encoded), exit CTIs and stub jumps
    come from the fixed-form writers, and an instruction without valid
    raw bits (Level 4, or a CTI) reuses the bytes the first walk
    encoded for its length.  Only a non-exit direct CTI is encoded again
    at its final pc. *)
let emit_fragment (rt : runtime) (ts : thread_state) ~(kind : fragment_kind)
    ~(tag : int) ?(src_ranges = []) (il : Instrlist.t) : fragment =
  (* walk 1: plan and lay out *)
  let off = ref 0 in
  let planned = ref [] (* (exit CTI, its exit), reversed *) in
  let encoded = ref [] (* the encoder's output, reversed *) in
  let abs_relocs = ref [] (* reversed *) in
  let lay ~nested (i : Instr.t) =
    match exit_info i with
    | Some (e_kind, target_tag, is_cond) ->
        if nested then rio_error "emit: exits nested deeper than one stub level";
        let stub_il, always = stub_note i in
        let e =
          {
            exit_id = 0 (* assigned once the space is allocated *);
            e_kind;
            target_tag;
            branch_pc = !off;
            branch_is_cond = is_cond;
            stub_pc = 0;
            stub_jmp_pc = 0;
            linked = None;
            always_through_stub = always;
            stub_il;
            e_owner = None;
          }
        in
        planned := (i, e) :: !planned;
        off := !off + if is_cond then Encode.jcc_rel32_len else Encode.jmp_rel32_len
    | None ->
        abs_relocs := scan_abs ~off:!off i !abs_relocs;
        let len =
          match i.Instr.payload with
          | Instr.Bundle { raw; _ } | Instr.Raw { raw; _ } | Instr.RawOp { raw; _ } ->
              Bytes.length raw
          | Instr.Full { raw = Some raw; raw_valid = true; insn; _ }
            when not (Insn.is_cti insn) ->
              Bytes.length raw
          | Instr.Full { insn; _ } ->
              let b = Encode.encode_exn ~pc:!off insn in
              encoded := b :: !encoded;
              Bytes.length b
        in
        off := !off + len
  in
  let lay_stubs ~nested exits =
    List.iter
      (fun (_, e) ->
        e.stub_pc <- !off;
        Option.iter (fun sil -> Instrlist.iter sil (lay ~nested)) e.stub_il;
        e.stub_jmp_pc <- !off;
        off := !off + Encode.jmp_rel32_len)
      exits
  in
  Instrlist.iter il (lay ~nested:false);
  let body_size = !off in
  (* stubs in exit order: the body's exits, then the exits found inside
     their stubs (a fragment may legitimately have none: it ends in hlt) *)
  let body_exits = List.rev !planned in
  planned := [];
  lay_stubs ~nested:false body_exits;
  let stub_exits = List.rev !planned in
  lay_stubs ~nested:true stub_exits;
  let planned = body_exits @ stub_exits in
  let total = !off in
  let entry = alloc rt ts ~kind total in
  let exits =
    Array.of_list
      (List.map
         (fun (_, e) ->
           e.exit_id <- rt.next_exit_id;
           rt.next_exit_id <- rt.next_exit_id + 1;
           e.branch_pc <- entry + e.branch_pc;
           e.stub_pc <- entry + e.stub_pc;
           e.stub_jmp_pc <- entry + e.stub_jmp_pc;
           register_exit rt e;
           e)
         planned)
  in
  (* walk 2: write the image *)
  let buf = Bytes.create total in
  let pos = ref 0 in
  let pending = ref planned in
  let encoded = ref (List.rev !encoded) in
  let put (i : Instr.t) =
    match !pending with
    | (x, e) :: rest when x == i ->
        (* an exit CTI, initially targeting its own stub *)
        pending := rest;
        (match Instr.get_opcode i with
         | Opcode.Jcc c ->
             Encode.write_jcc_rel32 buf ~off:!pos ~pc:e.branch_pc c e.stub_pc;
             pos := !pos + Encode.jcc_rel32_len
         | _ ->
             Encode.write_jmp_rel32 buf ~off:!pos ~pc:e.branch_pc e.stub_pc;
             pos := !pos + Encode.jmp_rel32_len)
    | _ ->
        let raw =
          match i.Instr.payload with
          | Instr.Bundle { raw; _ } | Instr.Raw { raw; _ } | Instr.RawOp { raw; _ } -> raw
          | Instr.Full { raw = Some raw; raw_valid = true; insn; _ }
            when not (Insn.is_cti insn) ->
              raw
          | Instr.Full { insn; _ } -> (
              match !encoded with
              | b :: rest ->
                  encoded := rest;
                  if has_target insn then begin
                    let b' = Encode.encode_exn ~pc:(entry + !pos) insn in
                    if Bytes.length b' <> Bytes.length b then
                      rio_error "emit: layout drift (tag 0x%x)" tag;
                    b'
                  end
                  else b
              | [] -> assert false)
        in
        Bytes.blit raw 0 buf !pos (Bytes.length raw);
        pos := !pos + Bytes.length raw
  in
  Instrlist.iter il put;
  Array.iter
    (fun e ->
      Option.iter (fun sil -> Instrlist.iter sil put) e.stub_il;
      Encode.write_jmp_rel32 buf ~off:(e.stub_jmp_pc - entry) ~pc:e.stub_jmp_pc
        (token_of_exit e);
      pos := !pos + Encode.jmp_rel32_len)
    exits;
  write_bytes rt ~addr:entry buf;
  (* the typed relocation table: every absolute target embedded in the
     fragment's bytes, as entry-relative sites.  Exit CTIs and stub
     jumps are pc-relative encodings of absolute targets, so a move
     rewrites their rel32s; the absolute-memory operands are
     position-independent under a move but gate persistence. *)
  let n = Array.length exits in
  let relocs =
    Array.make ((2 * n) + List.length !abs_relocs)
      { r_off = 0; r_target = RT_runtime_abs 0 }
  in
  Array.iteri
    (fun ord e ->
      relocs.(2 * ord) <- { r_off = e.branch_pc - entry; r_target = RT_exit_branch ord };
      relocs.((2 * ord) + 1) <-
        { r_off = e.stub_jmp_pc - entry; r_target = RT_stub_jmp ord })
    exits;
  List.iteri (fun k r -> relocs.(Array.length relocs - 1 - k) <- r) !abs_relocs;
  let frag =
    {
      tag;
      kind;
      f_tid = ts.ts_tid;
      entry;
      body_end = entry + body_size;
      total_end = entry + total;
      relocs;
      exits;
      incoming = [];
      deleted = false;
      exec_count = 0;
      reopted = false;
      loaded = false;
      guards = [];
      checksum = 0;
      src_ranges;
    }
  in
  Array.iter (fun e -> e.e_owner <- Some frag) exits;
  Audit.stamp rt frag (Audit.checksum_bytes buf);
  (match kind with
   | Bb ->
       Fragindex.set_bb ts.index tag frag;
       rt.stats.Stats.cache_bytes_bb <- rt.stats.Stats.cache_bytes_bb + total
   | Trace ->
       Fragindex.set_trace ts.index tag frag;
       rt.stats.Stats.cache_bytes_trace <- rt.stats.Stats.cache_bytes_trace + total);
  (* FIFO age tracking: every bounded-cache fragment joins its region's
     queue once, at emission; it leaves when its space is reclaimed *)
  (if rt.cache_alloc <> None then
     match kind with
     | Bb -> Queue.push frag rt.fifo_bb
     | Trace -> Queue.push frag rt.fifo_trace);
  frag

(* ------------------------------------------------------------------ *)
(* Cache-resident decode (client view)                                *)
(* ------------------------------------------------------------------ *)

(** Rebuild the client-view IL of a fragment by decoding its cache
    bytes (paper §3.4, [dr_decode_fragment]).  Exit CTIs are mapped
    back to their canonical form: direct exits get their application
    target, indirect exits their IND pseudo-token; custom stubs are
    re-attached as notes. *)
let decode_fragment_il (rt : runtime) (frag : fragment) : Instrlist.t =
  let mem = Vm.Machine.mem rt.machine in
  let fetch = Vm.Memory.fetch mem in
  let by_branch_pc = Hashtbl.create 8 in
  Array.iter (fun e -> Hashtbl.replace by_branch_pc e.branch_pc e) frag.exits;
  let il = Instrlist.create () in
  let pc = ref frag.entry in
  while !pc < frag.body_end do
    let insn, len = Decode.full_exn fetch !pc in
    let raw = Vm.Memory.read_bytes mem ~addr:!pc ~len in
    let instr =
      match Hashtbl.find_opt by_branch_pc !pc with
      | Some e ->
          let target =
            match e.e_kind with
            | Exit_direct -> e.target_tag
            | Exit_indirect k -> ind_token k
          in
          let insn' =
            match insn.Insn.opcode with
            | Opcode.Jmp -> Insn.mk_jmp target
            | Opcode.Jcc c -> Insn.mk_jcc c target
            | _ -> rio_error "decode_fragment: exit at 0x%x is not a branch" !pc
          in
          let i = Instr.of_insn insn' in
          (match (e.stub_il, e.always_through_stub) with
           | None, false -> ()
           | sil, always ->
               let sil = Option.value sil ~default:(Instrlist.create ()) in
               i.Instr.note <- Instr.Any_note (Stub_note (sil, always)));
          i
      | None -> Instr.of_decoded ~addr:!pc ~raw insn
    in
    Instrlist.append il instr;
    pc := !pc + len
  done;
  il

(* ------------------------------------------------------------------ *)
(* Replacement (adaptive re-optimization, paper §3.4)                 *)
(* ------------------------------------------------------------------ *)

(** Replace [old_frag] with a fresh emission of [il].  All links
    targeting the old fragment move to the new one atomically (from the
    application's perspective); the old body stays in memory so a
    thread currently executing inside it simply runs until its next
    exit, whose stubs remain valid — exactly the paper's delayed-delete
    scheme. *)
let replace_fragment (rt : runtime) (ts : thread_state) (old_frag : fragment)
    (il : Instrlist.t) : fragment =
  Mangle.mangle_il ~tid:ts.ts_tid il;
  let incoming = old_frag.incoming in
  (* detach incoming first so delete doesn't restore them to stubs *)
  old_frag.incoming <- [];
  let fresh =
    try
      emit_fragment rt ts ~kind:old_frag.kind ~tag:old_frag.tag
        ~src_ranges:old_frag.src_ranges il
    with No_room _ as e ->
      (* the bounded region refused the replacement: repair the link
         invariants broken by the detach above before giving up.  The
         failed emission may itself have evicted fragments — including
         [old_frag], whose deletion saw an empty incoming list *)
      if old_frag.deleted then
        (* old body is gone: surviving incoming branches must fall back
           to their stubs (unlink still sees e.linked = old_frag) *)
        List.iter
          (fun ex ->
            match ex.e_owner with
            | Some o when not o.deleted -> unlink rt ex
            | _ -> ex.linked <- None)
          incoming
      else
        (* old body stays live: re-attach the survivors *)
        old_frag.incoming <-
          List.filter
            (fun ex ->
              match ex.e_owner with
              | Some o when not o.deleted -> true
              | _ ->
                  ex.linked <- None;
                  false)
            incoming;
      raise e
  in
  (* Detach the old body from the link graph.  Its outgoing exits fall
     back to their stubs, so a thread still inside the old body leaves
     through the dispatcher — and no other fragment's incoming list
     keeps a patch site that would go stale when the old body's space
     is reclaimed and reused by the FIFO allocator.  If capacity
     pressure already evicted the old fragment during the emission
     above, delete_fragment did this (and its body bytes may be gone —
     do not touch them again). *)
  if not old_frag.deleted then
    Array.iter (fun e -> unlink rt e) old_frag.exits;
  List.iter
    (fun e ->
      (* under FIFO capacity pressure the emission above may already
         have evicted the fragment owning this incoming exit — its
         patch sites are reclaimed space now; leave it unlinked.  The
         old fragment's own self-loop exits were just unlinked above:
         they must not be re-pointed at [fresh], or its incoming list
         would keep a patch site inside the old body's dying space. *)
      match e.e_owner with
      | Some o when (not o.deleted) && o != old_frag ->
          e.linked <- None;
          (* re-point each incoming branch at the new entry *)
          if e.always_through_stub then
            patch_branch rt ~pc:e.stub_jmp_pc ~target:fresh.entry
          else patch_branch rt ~pc:e.branch_pc ~target:fresh.entry;
          refresh_owner rt e;
          e.linked <- Some fresh;
          fresh.incoming <- e :: fresh.incoming
      | Some o when o == old_frag -> () (* already unlinked above *)
      | _ -> e.linked <- None)
    incoming;
  (* the old fragment's stubs stay alive — a thread may still be
     executing inside the old body; emit_fragment already re-pointed
     the tag tables at the fresh fragment *)
  (match Fragindex.find ts.index old_frag.tag with
   | Some en when en.Fragindex.ibl <> None -> en.Fragindex.ibl <- Some fresh
   | _ -> ());
  (* delayed delete, exactly once: capacity eviction may have torn the
     old fragment down during the emission above, firing the hook
     already *)
  if not old_frag.deleted then begin
    old_frag.deleted <- true;
    rt.stats.Stats.fragments_replaced <- rt.stats.Stats.fragments_replaced + 1;
    charge_opt rt rt.opts.Options.costs.Options.replace_fragment;
    match rt.client.fragment_deleted with
    | Some hook ->
        Guard.protect rt ~hook:"fragment_deleted" (fun () ->
            hook { rt; ts } ~tag:old_frag.tag)
    | None -> ()
  end;
  fresh

(* ------------------------------------------------------------------ *)
(* Self-modifying-code flushes                                        *)
(* ------------------------------------------------------------------ *)

(** Does any of the byte ranges [ranges] overlap any of [src]? *)
let ranges_overlap ranges src =
  List.exists
    (fun (lo, hi) -> List.exists (fun (a, b) -> a < hi && lo < b) src)
    ranges

(** Delete every fragment built from application code overlapping any
    of [ranges].  Returns the deleted fragments (so the dispatcher can
    refuse to resume inside one).  Ranges starting at or above
    [tls_base] (TLS, the cache itself) cannot overlap any fragment's
    [src_ranges], so they are dropped before the index walk, and a
    flush with nothing left walks nothing. *)
let flush_ranges (rt : runtime) (ts : thread_state) (ranges : (int * int) list) :
    fragment list =
  match List.filter (fun (lo, _) -> lo < tls_base) ranges with
  | [] -> []
  | ranges ->
      let victims = ref [] in
      let collect _ f =
        if (not f.deleted) && ranges_overlap ranges f.src_ranges then
          victims := f :: !victims
      in
      Fragindex.iter_bbs ts.index collect;
      Fragindex.iter_traces ts.index collect;
      List.iter (fun f -> delete_fragment rt ts f) !victims;
      !victims

(* ------------------------------------------------------------------ *)
(* Capacity management: flush the world                               *)
(* ------------------------------------------------------------------ *)

(** Delete every fragment of every thread and reclaim the cache region.
    Only legal when no thread is executing inside the cache (the
    dispatcher calls this at safe points). *)
let flush_all (rt : runtime) : unit =
  List.iter
    (fun ts ->
      let frags = ref [] in
      Fragindex.iter_bbs ts.index (fun _ f -> frags := f :: !frags);
      Fragindex.iter_traces ts.index (fun _ f -> frags := f :: !frags);
      List.iter (fun f -> delete_fragment rt ts f) !frags;
      (* O(1) invalidation of every remaining slot (ibl included);
         head counters survive, as before *)
      Fragindex.flush_fragments ts.index)
    rt.thread_states;
  (match rt.cache_alloc with
   | None -> rt.cache_cursor <- cache_base
   | Some (bb_region, trace_region) ->
       (* FIFO mode: drop the age queues (deleted-but-unreclaimed
          entries included) and reopen both regions empty; the bump
          cursor stays pinned at the region end guarding the heap *)
       Queue.clear rt.fifo_bb;
       Queue.clear rt.fifo_trace;
       Cachealloc.reset bb_region;
       Cachealloc.reset trace_region);
  rt.flush_pending <- false;
  rt.stats.Stats.cache_flushes <- rt.stats.Stats.cache_flushes + 1

(* ------------------------------------------------------------------ *)
(* Invariant checking (tests and debugging)                           *)
(* ------------------------------------------------------------------ *)

(** Verify cache/link consistency (DESIGN.md invariant 7) over every
    live fragment:
    - a linked exit's target fragment is live, and the exit appears in
      the target's incoming list (and vice versa);
    - the patched branch bytes agree with the link state (linked →
      target entry / always-through-stub rules; unlinked → own stub);
    - every stub's final jump targets either its trap token (unlinked)
      or the linked target's entry (always-through-stub). *)
let check_invariants (rt : runtime) : (unit, string) result =
  let fetch = Vm.Memory.fetch (Vm.Machine.mem rt.machine) in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  let branch_target pc =
    match Decode.full fetch pc with
    | Ok (insn, _) when Insn.is_cti insn -> (
        match Insn.src insn 0 with
        | Operand.Target t -> Some t
        | _ -> None)
    | _ -> None
  in
  let check_fragment ts (f : fragment) =
    Array.iter
      (fun e ->
        (* incoming consistency *)
        (match e.linked with
         | Some tgt ->
             if tgt.deleted then
               fail "exit %d of 0x%x linked to deleted fragment 0x%x" e.exit_id
                 f.tag tgt.tag;
             if not (List.memq e tgt.incoming) then
               fail "exit %d of 0x%x missing from 0x%x's incoming list" e.exit_id
                 f.tag tgt.tag
         | None -> ());
        (* patched bytes agree with link state *)
        let expected_branch =
          match e.linked with
          | Some tgt when not e.always_through_stub -> tgt.entry
          | _ -> e.stub_pc
        in
        (match branch_target e.branch_pc with
         | Some t when t = expected_branch -> ()
         | Some t ->
             fail "exit %d of 0x%x: branch targets 0x%x, expected 0x%x" e.exit_id
               f.tag t expected_branch
         | None -> fail "exit %d of 0x%x: branch not decodable" e.exit_id f.tag);
        let expected_stub_jmp =
          match e.linked with
          | Some tgt when e.always_through_stub -> tgt.entry
          | _ -> token_of_exit e
        in
        match branch_target e.stub_jmp_pc with
        | Some t when t = expected_stub_jmp -> ()
        | Some t ->
            fail "exit %d of 0x%x: stub jmp targets 0x%x, expected 0x%x" e.exit_id
              f.tag t expected_stub_jmp
        | None -> fail "exit %d of 0x%x: stub jmp not decodable" e.exit_id f.tag)
      f.exits;
    (* incoming entries really point at us *)
    List.iter
      (fun e ->
        match e.linked with
        | Some tgt when tgt == f -> ()
        | _ -> fail "0x%x's incoming list holds exit %d not linked to it" f.tag e.exit_id)
      f.incoming;
    ignore ts
  in
  List.iter
    (fun ts ->
      Fragindex.iter_bbs ts.index (fun _ f -> if not f.deleted then check_fragment ts f);
      Fragindex.iter_traces ts.index (fun _ f -> if not f.deleted then check_fragment ts f);
      (* ibl entries must be live and not bb trace-heads *)
      Fragindex.iter_ibl ts.index
        (fun tag f ->
          if f.deleted then fail "ibl entry 0x%x points to a deleted fragment" tag))
    rt.thread_states;
  match !err with None -> Ok () | Some e -> Error e

module For_testing = struct
  let check_invariants = check_invariants
  let move_fragment = move_fragment
end

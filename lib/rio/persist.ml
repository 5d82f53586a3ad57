(** Persistent code cache: serialize a warm runtime's fragments —
    bodies plus typed relocation tables — the fragment index's
    application knowledge (trace-head counters, successor profiles,
    despeculation verdicts), and re-materialize them into a fresh
    runtime so a new serving instance warm-boots instead of
    re-discovering every hot trace (DESIGN.md §6.8).

    {2 Image format (".riocache")}

    All multi-byte header fields are little-endian u32; payload
    integers are unsigned LEB128 varints.

    {v
    "RIOCACHE"            8-byte magic
    version               u32 (format_version)
    options digest        u32 (Options.digest of the saving runtime)
    program digest        u32 (Asm.Image.digest, caller-supplied)
    payload               varint-encoded thread sections (below)
    checksum              u32 FNV-1a over every preceding byte
    v}

    Per thread section: tid; index entries (key, head+1, marked,
    nospec, head_cycles, optional 6-field successor profile); then the
    persistable bb fragments and trace fragments.  Per fragment: kind,
    tag, body/total length, source ranges, per-exit metadata (kind,
    target tag, site offsets, condition and always-through-stub flags),
    the relocation table, the speculative-guard table (site, assumption
    kind, owning-exit ordinal, lifetime violation count — format v2),
    and the raw cache bytes.

    {2 What load replays, and what it drops}

    Fragment bytes are blitted at whatever address the loading
    runtime's allocator picks, then fixed up by replaying the
    relocation table: exit CTIs are patched to their own stubs and stub
    jumps to {e fresh} trap tokens (exit ids are allocated anew), so
    whatever link state was frozen into the saved bytes is erased —
    fragments come back in unlinked form and the dispatcher re-links
    them lazily with its usual policy.  TLS-slot operands are
    validated against the loading thread's tid.  Dropped as
    rebuildable-or-runtime-local: direct links, IBL table entries,
    execution counters, guard burst windows (bursts are a phase
    signal of one process's run; lifetime violation counts {e do}
    survive, re-bound to the fresh exit ids, so a loaded -O3 trace
    keeps counting toward its despeculation budget), and client stub
    ILs (loaded fragments are marked [reopted] and [loaded] so nothing
    tries to decode them back to IL — a spent constant guard on a
    loaded trace despecs by rebuild, not by cutting).  Despeculation
    {e verdicts} travel in the index entries' [nospec] bits, so a
    warm-booted instance never rebuilds a speculation its saver
    already proved unstable.  Fragments addressing runtime-heap cells
    ([RT_runtime_abs]: client globals, profiling counters) are not
    persisted at all — those addresses die with the saving process. *)

open Types

let magic = "RIOCACHE"
let format_version = 2

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated
  | Checksum_mismatch
  | Options_mismatch
  | Image_mismatch
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "not a RIO cache image (bad magic)"
  | Bad_version v -> Printf.sprintf "unsupported cache-image version %d" v
  | Truncated -> "cache image truncated"
  | Checksum_mismatch -> "cache image checksum mismatch (corrupted)"
  | Options_mismatch -> "cache image was built under different options"
  | Image_mismatch -> "cache image was built from a different program"
  | Malformed msg -> Printf.sprintf "malformed cache image: %s" msg

(** What a successful load did: fragments skipped are those that did
    not fit the loading runtime's (possibly smaller) cache region. *)
type summary = { threads : int; fragments : int; skipped : int }

exception Fail of error

(* ------------------------------------------------------------------ *)
(* Primitive encoding                                                 *)
(* ------------------------------------------------------------------ *)

let fnv32 (s : string) ~(pos : int) ~(len : int) : int =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := !h lxor Char.code s.[i];
    h := !h * 0x01000193 land 0xffff_ffff
  done;
  !h

let add_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

(* unsigned LEB128 *)
let rec add_v buf v =
  if v < 0 then invalid_arg "Persist.add_v: negative";
  if v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
    add_v buf (v lsr 7)
  end

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

type reader = { src : string; mutable pos : int; limit : int }

let need r n = if r.pos + n > r.limit then raise (Fail Truncated)

let read_u32 r =
  need r 4;
  let b i = Char.code r.src.[r.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let read_v r =
  let rec go shift acc =
    need r 1;
    let b = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift > 56 then raise (Fail (Malformed "varint too long"))
    else go (shift + 7) acc
  in
  go 0 0

let read_bool r =
  need r 1;
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | _ -> raise (Fail (Malformed "bad boolean"))

let read_bytes_ r n =
  need r n;
  let b = Bytes.of_string (String.sub r.src r.pos n) in
  r.pos <- r.pos + n;
  b

(* ------------------------------------------------------------------ *)
(* Saving                                                             *)
(* ------------------------------------------------------------------ *)

let persistable (f : fragment) : bool =
  (not f.deleted)
  && Array.for_all
       (fun r ->
         match r.r_target with RT_runtime_abs _ -> false | _ -> true)
       f.relocs

let write_fragment buf (mem : Vm.Memory.t) (f : fragment) : unit =
  Buffer.add_char buf (match f.kind with Bb -> '\000' | Trace -> '\001');
  add_v buf f.tag;
  add_v buf (f.body_end - f.entry);
  add_v buf (f.total_end - f.entry);
  add_v buf (List.length f.src_ranges);
  List.iter
    (fun (lo, hi) ->
      add_v buf lo;
      add_v buf hi)
    f.src_ranges;
  add_v buf (Array.length f.exits);
  Array.iter
    (fun e ->
      Buffer.add_char buf
        (match e.e_kind with
        | Exit_direct -> '\000'
        | Exit_indirect Ind_jmp -> '\001'
        | Exit_indirect Ind_call -> '\002'
        | Exit_indirect Ind_ret -> '\003');
      add_v buf e.target_tag;
      add_v buf (e.branch_pc - f.entry);
      add_bool buf e.branch_is_cond;
      add_v buf (e.stub_pc - f.entry);
      add_v buf (e.stub_jmp_pc - f.entry);
      add_bool buf e.always_through_stub)
    f.exits;
  add_v buf (Array.length f.relocs);
  Array.iter
    (fun r ->
      add_v buf r.r_off;
      match r.r_target with
      | RT_exit_branch ord ->
          Buffer.add_char buf '\000';
          add_v buf ord
      | RT_stub_jmp ord ->
          Buffer.add_char buf '\001';
          add_v buf ord
      | RT_tls_abs (tid, slot) ->
          Buffer.add_char buf '\002';
          add_v buf tid;
          add_v buf slot
      | RT_runtime_abs addr ->
          Buffer.add_char buf '\003';
          add_v buf addr)
    f.relocs;
  (* speculative guards (format v2): site, assumption kind, owning-exit
     ordinal, lifetime violations.  Burst state is run-local and
     dropped; a guard not bound to a live exit has nothing to re-bind
     to and is skipped. *)
  let ord_of_exit id =
    let ord = ref (-1) in
    Array.iteri (fun k e -> if e.exit_id = id then ord := k) f.exits;
    !ord
  in
  let guards =
    List.filter_map
      (fun (g : guard) ->
        let ord = ord_of_exit g.g_exit_id in
        if ord < 0 then None else Some (g, ord))
      f.guards
  in
  add_v buf (List.length guards);
  List.iter
    (fun ((g : guard), ord) ->
      add_v buf g.g_site;
      Buffer.add_char buf
        (match g.g_kind with
        | G_ind Ind_jmp -> '\000'
        | G_ind Ind_call -> '\001'
        | G_ind Ind_ret -> '\002'
        | G_const -> '\003');
      add_v buf ord;
      add_v buf g.g_violations)
    guards;
  let len = f.total_end - f.entry in
  let body = Vm.Memory.read_bytes mem ~addr:f.entry ~len in
  Buffer.add_bytes buf body

let write_index_entries buf (ts : thread_state) : unit =
  let worth (e : _ Fragindex.entry) =
    e.Fragindex.head >= 0 || e.Fragindex.marked || e.Fragindex.nospec
    || e.Fragindex.prof <> None
  in
  let entries = ref [] in
  Fragindex.iter_entries ts.index (fun e ->
      if worth e then entries := e :: !entries);
  add_v buf (List.length !entries);
  List.iter
    (fun (e : _ Fragindex.entry) ->
      add_v buf e.Fragindex.key;
      add_v buf (e.Fragindex.head + 1);
      add_bool buf e.Fragindex.marked;
      add_bool buf e.Fragindex.nospec;
      add_v buf (max 0 e.Fragindex.head_cycles);
      match e.Fragindex.prof with
      | None -> add_bool buf false
      | Some p ->
          add_bool buf true;
          add_v buf p.Fragindex.p_t1;
          add_v buf p.Fragindex.p_n1;
          add_v buf p.Fragindex.p_t2;
          add_v buf p.Fragindex.p_n2;
          add_v buf p.Fragindex.p_other;
          add_v buf p.Fragindex.p_total)
    !entries

(** Serialize the runtime's warm state to [path] (written atomically
    via a temporary file).  [image_digest] is the {!Asm.Image.digest}
    of the program the cache was built over; load refuses anything
    else.  Returns the number of fragments persisted. *)
let save (rt : runtime) ~(image_digest : int) ~(path : string) : int =
  let mem = Vm.Machine.mem rt.machine in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  add_u32 buf format_version;
  add_u32 buf (Options.digest rt.opts);
  add_u32 buf (image_digest land 0xffff_ffff);
  let persisted = ref 0 in
  let tss =
    List.sort (fun a b -> compare a.ts_tid b.ts_tid) rt.thread_states
  in
  add_v buf (List.length tss);
  List.iter
    (fun ts ->
      add_v buf ts.ts_tid;
      write_index_entries buf ts;
      let collect iter =
        let fs = ref [] in
        iter ts.index (fun _ f -> if persistable f then fs := f :: !fs);
        (* ascending entry: stable output, and load re-materializes in
           original emission order within each region *)
        List.sort (fun a b -> compare a.entry b.entry) !fs
      in
      let bbs = collect Fragindex.iter_bbs in
      let traces = collect Fragindex.iter_traces in
      add_v buf (List.length bbs);
      List.iter (fun f -> write_fragment buf mem f) bbs;
      add_v buf (List.length traces);
      List.iter (fun f -> write_fragment buf mem f) traces;
      persisted := !persisted + List.length bbs + List.length traces)
    tss;
  add_u32 buf (fnv32 (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf));
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc buf;
  close_out oc;
  Sys.rename tmp path;
  rt.stats.Stats.persist_saves <- rt.stats.Stats.persist_saves + 1;
  rt.stats.Stats.fragments_persisted <-
    rt.stats.Stats.fragments_persisted + !persisted;
  !persisted

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

(* The warm per-tid state for a loading runtime: reuse an existing one,
   or fabricate a machine thread so tids line up and build the state
   directly (mirrors Engine.make_thread_state; Persist sits below
   Engine).  Fabricated threads are swept away by the reset_for_run at
   the end of [load] — the next request's thread re-attaches to the
   state by tid, exactly as warm reuse does. *)
let thread_state_for (rt : runtime) (tid : int) : thread_state =
  match List.find_opt (fun ts -> ts.ts_tid = tid) rt.thread_states with
  | Some ts -> ts
  | None ->
      let rec mk () =
        let th = Vm.Machine.add_thread rt.machine ~entry:0 ~stack_top:0 in
        if th.Vm.Machine.tid < tid then mk ()
        else if th.Vm.Machine.tid = tid then th
        else raise (Fail (Malformed "thread sections out of order"))
      in
      let th = mk () in
      let ts =
        {
          ts_tid = tid;
          thread = th;
          next_tag = 0;
          index = Fragindex.create ();
          tracegen = None;
          client_field = None;
          exited = false;
          in_cache = false;
        }
      in
      rt.thread_states <- rt.thread_states @ [ ts ];
      ts

let read_index_entries r (ts : thread_state) : unit =
  let n = read_v r in
  for _ = 1 to n do
    let key = read_v r in
    let head = read_v r - 1 in
    let marked = read_bool r in
    let nospec = read_bool r in
    let head_cycles = read_v r in
    let e = Fragindex.ensure ts.index key in
    e.Fragindex.head <- max e.Fragindex.head head;
    if marked then e.Fragindex.marked <- true;
    if nospec then e.Fragindex.nospec <- true;
    if e.Fragindex.head_cycles = 0 then e.Fragindex.head_cycles <- head_cycles;
    if read_bool r then begin
      let p_t1 = read_v r in
      let p_n1 = read_v r in
      let p_t2 = read_v r in
      let p_n2 = read_v r in
      let p_other = read_v r in
      let p_total = read_v r in
      let loaded = { Fragindex.p_t1; p_n1; p_t2; p_n2; p_other; p_total } in
      match e.Fragindex.prof with
      | None -> e.Fragindex.prof <- Some loaded
      | Some live ->
          (* the image's histogram folds into whatever this instance
             already learned — cross-run accumulation, not clobbering *)
          Fragindex.merge_profile ~src:loaded live
    end
  done

(* Parse one fragment section into a placement-independent description. *)
type parsed_exit = {
  pe_kind : exit_kind;
  pe_target : int;
  pe_branch_off : int;
  pe_cond : bool;
  pe_stub_off : int;
  pe_stub_jmp_off : int;
  pe_always : bool;
}

type parsed_guard = {
  pg_site : int;
  pg_kind : guard_kind;
  pg_ord : int;          (* ordinal of the bound exit *)
  pg_violations : int;
}

type parsed_fragment = {
  pf_kind : fragment_kind;
  pf_tag : int;
  pf_body_len : int;
  pf_total_len : int;
  pf_src_ranges : (int * int) list;
  pf_exits : parsed_exit list;
  pf_relocs : reloc array;
  pf_guards : parsed_guard list;
  pf_bytes : Bytes.t;
}

let read_fragment r : parsed_fragment =
  need r 1;
  let kind =
    match r.src.[r.pos] with
    | '\000' -> Bb
    | '\001' -> Trace
    | _ -> raise (Fail (Malformed "bad fragment kind"))
  in
  r.pos <- r.pos + 1;
  let tag = read_v r in
  let body_len = read_v r in
  let total_len = read_v r in
  if body_len > total_len || total_len <= 0 || total_len > 0x100_0000 then
    raise (Fail (Malformed "implausible fragment size"));
  let nsrc = read_v r in
  let src_ranges =
    List.init nsrc (fun _ ->
        let lo = read_v r in
        let hi = read_v r in
        (lo, hi))
  in
  let nexits = read_v r in
  if nexits > 4096 then raise (Fail (Malformed "implausible exit count"));
  let exits =
    List.init nexits (fun _ ->
        need r 1;
        let pe_kind =
          match r.src.[r.pos] with
          | '\000' -> Exit_direct
          | '\001' -> Exit_indirect Ind_jmp
          | '\002' -> Exit_indirect Ind_call
          | '\003' -> Exit_indirect Ind_ret
          | _ -> raise (Fail (Malformed "bad exit kind"))
        in
        r.pos <- r.pos + 1;
        let pe_target = read_v r in
        let pe_branch_off = read_v r in
        let pe_cond = read_bool r in
        let pe_stub_off = read_v r in
        let pe_stub_jmp_off = read_v r in
        let pe_always = read_bool r in
        if pe_branch_off >= total_len || pe_stub_jmp_off >= total_len then
          raise (Fail (Malformed "exit site outside fragment"));
        { pe_kind; pe_target; pe_branch_off; pe_cond; pe_stub_off;
          pe_stub_jmp_off; pe_always })
  in
  let nrel = read_v r in
  if nrel > 65536 then raise (Fail (Malformed "implausible reloc count"));
  let relocs =
    Array.init nrel (fun _ ->
        let r_off = read_v r in
        need r 1;
        let tagc = r.src.[r.pos] in
        r.pos <- r.pos + 1;
        let r_target =
          match tagc with
          | '\000' ->
              let ord = read_v r in
              if ord >= nexits then
                raise (Fail (Malformed "reloc exit ordinal out of range"));
              RT_exit_branch ord
          | '\001' ->
              let ord = read_v r in
              if ord >= nexits then
                raise (Fail (Malformed "reloc exit ordinal out of range"));
              RT_stub_jmp ord
          | '\002' ->
              let tid = read_v r in
              let slot = read_v r in
              RT_tls_abs (tid, slot)
          | '\003' -> RT_runtime_abs (read_v r)
          | _ -> raise (Fail (Malformed "bad reloc target"))
        in
        if r_off >= total_len then
          raise (Fail (Malformed "reloc site outside fragment"));
        { r_off; r_target })
  in
  let nguards = read_v r in
  if nguards > 4096 then raise (Fail (Malformed "implausible guard count"));
  let guards =
    List.init nguards (fun _ ->
        let pg_site = read_v r in
        need r 1;
        let pg_kind =
          match r.src.[r.pos] with
          | '\000' -> G_ind Ind_jmp
          | '\001' -> G_ind Ind_call
          | '\002' -> G_ind Ind_ret
          | '\003' -> G_const
          | _ -> raise (Fail (Malformed "bad guard kind"))
        in
        r.pos <- r.pos + 1;
        let pg_ord = read_v r in
        if pg_ord >= nexits then
          raise (Fail (Malformed "guard exit ordinal out of range"));
        let pg_violations = read_v r in
        { pg_site; pg_kind; pg_ord; pg_violations })
  in
  let bytes = read_bytes_ r total_len in
  { pf_kind = kind; pf_tag = tag; pf_body_len = body_len;
    pf_total_len = total_len; pf_src_ranges = src_ranges; pf_exits = exits;
    pf_relocs = relocs; pf_guards = guards; pf_bytes = bytes }

(* Re-materialize one parsed fragment into the runtime: allocate cache
   space, blit, build exit records with fresh ids, and replay the
   relocation table so every pc-relative site targets this placement
   (and this runtime's trap tokens) instead of the saved one.  Returns
   false when the region cannot host it (smaller cache at load). *)
let materialize (rt : runtime) (ts : thread_state) (pf : parsed_fragment) : bool
    =
  (* TLS operands are absolute per-(tid,slot) addresses: only load a
     fragment into the tid it was mangled for *)
  let tls_ok =
    Array.for_all
      (fun r ->
        match r.r_target with
        | RT_tls_abs (tid, _) -> tid = ts.ts_tid
        | RT_runtime_abs _ -> false
        | _ -> true)
      pf.pf_relocs
  in
  if not tls_ok then false
  else
    match Emit.alloc rt ts ~kind:pf.pf_kind pf.pf_total_len with
    | exception Emit.No_room _ -> false
    | exception Emit.Cache_full -> false
    | entry ->
        Emit.write_bytes rt ~addr:entry pf.pf_bytes;
        let exits =
          List.map
            (fun pe ->
              let id = rt.next_exit_id in
              rt.next_exit_id <- rt.next_exit_id + 1;
              let e =
                {
                  exit_id = id;
                  e_kind = pe.pe_kind;
                  target_tag = pe.pe_target;
                  branch_pc = entry + pe.pe_branch_off;
                  branch_is_cond = pe.pe_cond;
                  stub_pc = entry + pe.pe_stub_off;
                  stub_jmp_pc = entry + pe.pe_stub_jmp_off;
                  linked = None;
                  always_through_stub = pe.pe_always;
                  stub_il = None;
                  e_owner = None;
                }
              in
              register_exit rt e;
              e)
            pf.pf_exits
        in
        let exits = Array.of_list exits in
        let frag =
          {
            tag = pf.pf_tag;
            kind = pf.pf_kind;
            f_tid = ts.ts_tid;
            entry;
            body_end = entry + pf.pf_body_len;
            total_end = entry + pf.pf_total_len;
            relocs = pf.pf_relocs;
            exits;
            incoming = [];
            deleted = false;
            exec_count = 0;
            (* no IL round-trip for loaded bodies: stub preambles lost
               their notes, so decode-based re-optimization must never
               run on them *)
            reopted = true;
            loaded = true;
            guards = [];
            checksum = 0;
            src_ranges = pf.pf_src_ranges;
          }
        in
        Array.iter (fun e -> e.e_owner <- Some frag) exits;
        (* re-bind persisted guards to the fresh exit ids: lifetime
           violation counts carry over (the despec budget survives the
           reboot), burst state starts clean *)
        frag.guards <-
          List.map
            (fun pg ->
              {
                g_site = pg.pg_site;
                g_kind = pg.pg_kind;
                g_exit_id = exits.(pg.pg_ord).exit_id;
                g_violations = pg.pg_violations;
                g_last_violation = 0;
                g_burst = 0;
              })
            pf.pf_guards;
        (* relocation replay: the saved bytes froze some link state and
           the saver's trap tokens — re-patch every pc-relative site
           for this placement, unlinked, with this runtime's tokens *)
        Array.iter
          (fun r ->
            match r.r_target with
            | RT_exit_branch ord ->
                let e = exits.(ord) in
                Emit.patch_branch rt ~pc:e.branch_pc ~target:e.stub_pc
            | RT_stub_jmp ord ->
                let e = exits.(ord) in
                Emit.patch_branch rt ~pc:e.stub_jmp_pc
                  ~target:(token_of_exit e)
            | RT_tls_abs _ | RT_runtime_abs _ -> ())
          pf.pf_relocs;
        Audit.refresh rt frag;
        (* index the fragment, replicating the build-time IBL policy:
           a bb publishes itself for indirect lookups unless its tag is
           a trace head; a trace always shadows the head's slot.  Bb
           sections precede trace sections in the image, so the trace's
           [set_ibl] wins, exactly as it does when built live. *)
        (match pf.pf_kind with
        | Bb ->
            Fragindex.set_bb ts.index pf.pf_tag frag;
            if not (Fragindex.is_head ts.index pf.pf_tag) then
              Fragindex.set_ibl ts.index pf.pf_tag frag;
            rt.stats.Stats.cache_bytes_bb <-
              rt.stats.Stats.cache_bytes_bb + pf.pf_total_len
        | Trace ->
            Fragindex.set_trace ts.index pf.pf_tag frag;
            Fragindex.set_ibl ts.index pf.pf_tag frag;
            rt.stats.Stats.cache_bytes_trace <-
              rt.stats.Stats.cache_bytes_trace + pf.pf_total_len);
        (if rt.cache_alloc <> None then
           match pf.pf_kind with
           | Bb -> Queue.push frag rt.fifo_bb
           | Trace -> Queue.push frag rt.fifo_trace);
        rt.stats.Stats.fragments_preloaded <-
          rt.stats.Stats.fragments_preloaded + 1;
        true

(** Load a cache image saved by {!save} into a freshly created runtime
    (no requests served yet).  Refuses images whose options bundle or
    program digest disagree with this runtime, and anything corrupted,
    truncated, or version-skewed — always with a typed error, never an
    exception.  On success every re-materialized fragment is indexed,
    unlinked, and audit-checksummed; the machine's thread list is left
    clean for the first request. *)
let load (rt : runtime) ~(image_digest : int) ~(path : string) :
    (summary, error) result =
  let refused e =
    rt.stats.Stats.persist_load_failures <-
      rt.stats.Stats.persist_load_failures + 1;
    Error e
  in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  with
  | exception Sys_error _ -> refused Truncated
  | s -> (
      let hlen = String.length magic + 12 in
      if String.length s < hlen + 4 then refused Truncated
      else if String.sub s 0 (String.length magic) <> magic then
        refused Bad_magic
      else begin
        let r =
          { src = s; pos = String.length magic; limit = String.length s - 4 }
        in
        let stored_sum =
          let t = { src = s; pos = String.length s - 4; limit = String.length s }
          in
          read_u32 t
        in
        let version = read_u32 r in
        let opts_digest = read_u32 r in
        let img_digest = read_u32 r in
        if version <> format_version then refused (Bad_version version)
        else if fnv32 s ~pos:0 ~len:(String.length s - 4) <> stored_sum then
          refused Checksum_mismatch
        else if opts_digest <> Options.digest rt.opts then
          refused Options_mismatch
        else if img_digest <> image_digest land 0xffff_ffff then
          refused Image_mismatch
        else begin
          match
            let nthreads = read_v r in
            if nthreads > 1024 then
              raise (Fail (Malformed "implausible thread count"));
            let fragments = ref 0 and skipped = ref 0 in
            for _ = 1 to nthreads do
              let tid = read_v r in
              let ts = thread_state_for rt tid in
              read_index_entries r ts;
              let load_set () =
                let n = read_v r in
                for _ = 1 to n do
                  let pf = read_fragment r in
                  if materialize rt ts pf then incr fragments
                  else incr skipped
                done
              in
              load_set () (* basic blocks *);
              load_set () (* traces *)
            done;
            if r.pos <> r.limit then
              raise (Fail (Malformed "trailing bytes after last section"));
            (* drop the fabricated threads; per-tid state (the warm
               cache) survives and re-attaches on the first request *)
            Vm.Machine.reset_for_run rt.machine;
            { threads = nthreads; fragments = !fragments; skipped = !skipped }
          with
          | summary ->
              rt.stats.Stats.persist_loads <-
                rt.stats.Stats.persist_loads + 1;
              Ok summary
          | exception Fail e -> refused e
          | exception Rio_error msg -> refused (Malformed msg)
        end
      end)

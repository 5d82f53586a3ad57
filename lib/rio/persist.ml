(** Persistent code cache: serialize a warm runtime's fragments —
    bodies plus typed relocation tables — the fragment index's
    application knowledge (trace-head counters, successor profiles,
    despeculation verdicts), and re-materialize them into a fresh
    runtime so a new serving instance warm-boots instead of
    re-discovering every hot trace (DESIGN.md §6.8).

    {2 Image format (".riocache")}

    All multi-byte header fields are little-endian u32; payload
    integers are unsigned LEB128 varints; tags are one byte.  Both
    directions go through {!Codec}, which states each primitive and
    each tag table once.  A decode error is a typed {!Codec.error}
    inside [Malformed]; {!load} returns it and never raises.

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
  | Malformed of Codec.error

let error_to_string = function
  | Bad_magic -> "not a RIO cache image (bad magic)"
  | Bad_version v -> Printf.sprintf "unsupported cache-image version %d" v
  | Truncated -> "cache image truncated"
  | Checksum_mismatch -> "cache image checksum mismatch (corrupted)"
  | Options_mismatch -> "cache image was built under different options"
  | Image_mismatch -> "cache image was built from a different program"
  | Malformed e -> "malformed cache image: " ^ Codec.error_to_string e

(** What a successful load did: fragments skipped are those that did
    not fit the loading runtime's (possibly smaller) cache region. *)
type summary = { fragments : int; skipped : int }

(* ------------------------------------------------------------------ *)
(* Tag tables                                                         *)
(* ------------------------------------------------------------------ *)

let fragment_kind = Codec.enum "fragment kind" [ (Bb, 0); (Trace, 1) ]

let exit_kind =
  Codec.enum "exit kind"
    [
      (Exit_direct, 0);
      (Exit_indirect Ind_jmp, 1);
      (Exit_indirect Ind_call, 2);
      (Exit_indirect Ind_ret, 3);
    ]

let reloc_target =
  Codec.enum "reloc target"
    [ (`Exit_branch, 0); (`Stub_jmp, 1); (`Tls_abs, 2); (`Runtime_abs, 3) ]

let guard_kind =
  Codec.enum "guard kind"
    [ (G_ind Ind_jmp, 0); (G_ind Ind_call, 1); (G_ind Ind_ret, 2); (G_const, 3) ]

let max_threads = 1024
let max_count = 0x100_0000 (* entries or fragments in one thread section *)

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
  let v = Codec.put_varint buf in
  Codec.put_enum fragment_kind buf f.kind;
  v f.tag;
  v (f.body_end - f.entry);
  v (f.total_end - f.entry);
  v (List.length f.src_ranges);
  List.iter
    (fun (lo, hi) ->
      v lo;
      v hi)
    f.src_ranges;
  v (Array.length f.exits);
  Array.iter
    (fun e ->
      Codec.put_enum exit_kind buf e.e_kind;
      v e.target_tag;
      v (e.branch_pc - f.entry);
      Codec.put_bool buf e.branch_is_cond;
      v (e.stub_pc - f.entry);
      v (e.stub_jmp_pc - f.entry);
      Codec.put_bool buf e.always_through_stub)
    f.exits;
  v (Array.length f.relocs);
  Array.iter
    (fun r ->
      v r.r_off;
      let tag, args =
        match r.r_target with
        | RT_exit_branch ord -> (`Exit_branch, [ ord ])
        | RT_stub_jmp ord -> (`Stub_jmp, [ ord ])
        | RT_tls_abs (tid, slot) -> (`Tls_abs, [ tid; slot ])
        | RT_runtime_abs addr -> (`Runtime_abs, [ addr ])
      in
      Codec.put_enum reloc_target buf tag;
      List.iter v args)
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
  v (List.length guards);
  List.iter
    (fun ((g : guard), ord) ->
      v g.g_site;
      Codec.put_enum guard_kind buf g.g_kind;
      v ord;
      v g.g_violations)
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
  let v = Codec.put_varint buf in
  v (List.length !entries);
  List.iter
    (fun (e : _ Fragindex.entry) ->
      v e.Fragindex.key;
      v (e.Fragindex.head + 1);
      Codec.put_bool buf e.Fragindex.marked;
      Codec.put_bool buf e.Fragindex.nospec;
      v (max 0 e.Fragindex.head_cycles);
      Codec.put_bool buf (e.Fragindex.prof <> None);
      Option.iter
        (fun p ->
          v p.Fragindex.p_t1;
          v p.Fragindex.p_n1;
          v p.Fragindex.p_t2;
          v p.Fragindex.p_n2;
          v p.Fragindex.p_other;
          v p.Fragindex.p_total)
        e.Fragindex.prof)
    !entries

(** Serialize the runtime's warm state to [path] (written atomically
    via a temporary file).  [image_digest] is the {!Asm.Image.digest}
    of the program the cache was built over; load refuses anything
    else.  Returns the number of fragments persisted. *)
let save (rt : runtime) ~(image_digest : int) ~(path : string) : int =
  let mem = Vm.Machine.mem rt.machine in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  Codec.put_u32 buf format_version;
  Codec.put_u32 buf (Options.digest rt.opts);
  Codec.put_u32 buf (image_digest land 0xffff_ffff);
  let persisted = ref 0 in
  let tss =
    List.sort (fun a b -> compare a.ts_tid b.ts_tid) rt.thread_states
  in
  Codec.put_varint buf (List.length tss);
  List.iter
    (fun ts ->
      Codec.put_varint buf ts.ts_tid;
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
      Codec.put_varint buf (List.length bbs);
      List.iter (fun f -> write_fragment buf mem f) bbs;
      Codec.put_varint buf (List.length traces);
      List.iter (fun f -> write_fragment buf mem f) traces;
      persisted := !persisted + List.length bbs + List.length traces)
    tss;
  Codec.put_u32 buf
    (Codec.fnv32 (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf));
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
   state by tid, exactly as warm reuse does.  [None] when the machine
   already gave [tid] to a thread of its own. *)
let thread_state_for (rt : runtime) (tid : int) : thread_state option =
  match List.find_opt (fun ts -> ts.ts_tid = tid) rt.thread_states with
  | Some ts -> Some ts
  | None ->
      let rec mk () =
        let th = Vm.Machine.add_thread rt.machine ~entry:0 ~stack_top:0 in
        if th.Vm.Machine.tid < tid then mk ()
        else if th.Vm.Machine.tid = tid then Some th
        else None
      in
      Option.map
        (fun th ->
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
          ts)
        (mk ())

(* Parse one index entry into the update it makes to a thread's index. *)
let read_index_entry c : thread_state -> unit =
  let key = Codec.varint c in
  let head = Codec.varint c - 1 in
  let marked = Codec.bool c in
  let nospec = Codec.bool c in
  let head_cycles = Codec.varint c in
  let prof =
    if Codec.bool c then begin
      let p_t1 = Codec.varint c in
      let p_n1 = Codec.varint c in
      let p_t2 = Codec.varint c in
      let p_n2 = Codec.varint c in
      let p_other = Codec.varint c in
      let p_total = Codec.varint c in
      Some { Fragindex.p_t1; p_n1; p_t2; p_n2; p_other; p_total }
    end
    else None
  in
  fun ts ->
    let e = Fragindex.ensure ts.index key in
    e.Fragindex.head <- max e.Fragindex.head head;
    if marked then e.Fragindex.marked <- true;
    if nospec then e.Fragindex.nospec <- true;
    if e.Fragindex.head_cycles = 0 then e.Fragindex.head_cycles <- head_cycles;
    Option.iter
      (fun loaded ->
        match e.Fragindex.prof with
        | None -> e.Fragindex.prof <- Some loaded
        | Some live ->
            (* the image's histogram folds into whatever this instance
               already learned — cross-run accumulation, not clobbering *)
            Fragindex.merge_profile ~src:loaded live)
      prof

(* Parse one fragment section into a placement-independent fragment:
   placed at address 0, its exit ids are their ordinals, and its guards
   name their exits by ordinal; [materialize] places it.  Every offset
   must lie inside the fragment, every ordinal name one of its exits,
   and every site that load re-patches must hold a long branch whose
   bytes end inside the fragment. *)
let read_fragment c ~tid : fragment * Bytes.t =
  let kind = Codec.enum_of fragment_kind c in
  let tag = Codec.varint c in
  let body_len = Codec.varint c in
  let total_len =
    Codec.check ~field:"fragment length" ~lo:1 ~hi:0x100_0001 (Codec.varint c)
  in
  let body_end =
    Codec.check ~field:"fragment body length" ~lo:0 ~hi:(total_len + 1) body_len
  in
  let offset field c = Codec.check ~field ~lo:0 ~hi:total_len (Codec.varint c) in
  let range c =
    let lo = Codec.varint c in
    (lo, Codec.varint c)
  in
  let src_ranges =
    Codec.list ~field:"source range count" ~max:total_len Codec.varint range c
  in
  let exit c =
    let e_kind = Codec.enum_of exit_kind c in
    let target_tag = Codec.varint c in
    let branch_pc = offset "exit branch offset" c in
    let branch_is_cond = Codec.bool c in
    let stub_pc = offset "exit stub offset" c in
    let stub_jmp_pc = offset "exit stub jump offset" c in
    let always_through_stub = Codec.bool c in
    { exit_id = 0; e_kind; target_tag; branch_pc; branch_is_cond; stub_pc;
      stub_jmp_pc; linked = None; always_through_stub; stub_il = None;
      e_owner = None }
  in
  let exits =
    Array.of_list (Codec.list ~field:"exit count" ~max:4096 Codec.varint exit c)
  in
  Array.iteri (fun k e -> e.exit_id <- k) exits;
  let ordinal field c =
    Codec.check ~field ~lo:0 ~hi:(Array.length exits) (Codec.varint c)
  in
  let reloc c =
    let r_off = offset "reloc site" c in
    let r_target =
      match Codec.enum_of reloc_target c with
      | `Exit_branch -> RT_exit_branch (ordinal "reloc exit ordinal" c)
      | `Stub_jmp -> RT_stub_jmp (ordinal "reloc exit ordinal" c)
      | `Tls_abs ->
          let tid = Codec.varint c in
          RT_tls_abs (tid, Codec.varint c)
      | `Runtime_abs -> RT_runtime_abs (Codec.varint c)
    in
    { r_off; r_target }
  in
  let relocs =
    Array.of_list (Codec.list ~field:"reloc count" ~max:65536 Codec.varint reloc c)
  in
  let guard c =
    let g_site = Codec.varint c in
    let g_kind = Codec.enum_of guard_kind c in
    let g_exit_id = ordinal "guard exit ordinal" c in
    { g_site; g_kind; g_exit_id; g_violations = Codec.varint c;
      g_last_violation = 0; g_burst = 0 }
  in
  let guards = Codec.list ~field:"guard count" ~max:4096 Codec.varint guard c in
  let bytes = Codec.raw c total_len in
  let fetch i = if i < total_len then Char.code bytes.[i] else 0 in
  let branch_site field off =
    let len = Isa.Encode.long_branch_len fetch off in
    if len = 0 || off + len > total_len then
      raise (Codec.Error (Out_of_range { field; value = off }))
  in
  Array.iter
    (fun r ->
      match r.r_target with
      | RT_exit_branch ord -> branch_site "exit branch site" exits.(ord).branch_pc
      | RT_stub_jmp ord -> branch_site "stub jump site" exits.(ord).stub_jmp_pc
      | RT_tls_abs _ | RT_runtime_abs _ -> ())
    relocs;
  (* no IL round-trip for loaded bodies: stub preambles lost their
     notes, so decode-based re-optimization must never run on them *)
  ( { tag; kind; f_tid = tid; entry = 0; body_end; total_end = total_len;
      relocs; exits; incoming = []; deleted = false; exec_count = 0;
      reopted = true; loaded = true; guards; checksum = 0; src_ranges },
    Bytes.of_string bytes )

(* Place one parsed fragment in the runtime: allocate cache space,
   blit, give its exits fresh ids and rebase every pc, and replay the
   relocation table so every pc-relative site targets this placement
   (and this runtime's trap tokens) instead of the saved one.  Returns
   false when the region cannot host it (smaller cache at load). *)
let materialize (rt : runtime) (ts : thread_state) ((frag, bytes) : fragment * Bytes.t)
    : bool =
  (* TLS operands are absolute per-(tid,slot) addresses: only load a
     fragment into the tid it was mangled for *)
  let tls_ok =
    Array.for_all
      (fun r ->
        match r.r_target with
        | RT_tls_abs (tid, _) -> tid = ts.ts_tid
        | RT_runtime_abs _ -> false
        | _ -> true)
      frag.relocs
  in
  let len = frag.total_end in
  if not tls_ok then false
  else
    match Emit.alloc rt ts ~kind:frag.kind len with
    | exception Emit.No_room _ -> false
    | exception Emit.Cache_full -> false
    | entry ->
        Emit.write_bytes rt ~addr:entry bytes;
        frag.entry <- entry;
        frag.body_end <- entry + frag.body_end;
        frag.total_end <- entry + len;
        Array.iter
          (fun e ->
            e.exit_id <- rt.next_exit_id;
            rt.next_exit_id <- rt.next_exit_id + 1;
            e.branch_pc <- entry + e.branch_pc;
            e.stub_pc <- entry + e.stub_pc;
            e.stub_jmp_pc <- entry + e.stub_jmp_pc;
            e.e_owner <- Some frag;
            register_exit rt e)
          frag.exits;
        (* re-bind persisted guards to the fresh exit ids: lifetime
           violation counts carry over (the despec budget survives the
           reboot), burst state starts clean *)
        List.iter
          (fun g -> g.g_exit_id <- frag.exits.(g.g_exit_id).exit_id)
          frag.guards;
        (* relocation replay: the saved bytes froze some link state and
           the saver's trap tokens — re-patch every pc-relative site
           for this placement, unlinked, with this runtime's tokens *)
        Array.iter
          (fun r ->
            match r.r_target with
            | RT_exit_branch ord ->
                let e = frag.exits.(ord) in
                Emit.patch_branch rt ~pc:e.branch_pc ~target:e.stub_pc
            | RT_stub_jmp ord ->
                let e = frag.exits.(ord) in
                Emit.patch_branch rt ~pc:e.stub_jmp_pc
                  ~target:(token_of_exit e)
            | RT_tls_abs _ | RT_runtime_abs _ -> ())
          frag.relocs;
        Audit.refresh rt frag;
        (* index the fragment, replicating the build-time IBL policy:
           a bb publishes itself for indirect lookups unless its tag is
           a trace head; a trace always shadows the head's slot.  Bb
           sections precede trace sections in the image, so the trace's
           [set_ibl] wins, exactly as it does when built live. *)
        (match frag.kind with
        | Bb ->
            Fragindex.set_bb ts.index frag.tag frag;
            if not (Fragindex.is_head ts.index frag.tag) then
              Fragindex.set_ibl ts.index frag.tag frag;
            rt.stats.Stats.cache_bytes_bb <-
              rt.stats.Stats.cache_bytes_bb + len
        | Trace ->
            Fragindex.set_trace ts.index frag.tag frag;
            Fragindex.set_ibl ts.index frag.tag frag;
            rt.stats.Stats.cache_bytes_trace <-
              rt.stats.Stats.cache_bytes_trace + len);
        (if rt.cache_alloc <> None then
           match frag.kind with
           | Bb -> Queue.push frag rt.fifo_bb
           | Trace -> Queue.push frag rt.fifo_trace);
        rt.stats.Stats.fragments_preloaded <-
          rt.stats.Stats.fragments_preloaded + 1;
        true

(** Load a cache image saved by {!save} into a freshly created runtime
    (no requests served yet).  Refuses images whose options bundle or
    program digest disagree with this runtime, and anything corrupted,
    truncated, or version-skewed — always with a typed error, never an
    exception.  The payload is decoded whole before anything is
    materialized, so a refused image leaves the runtime untouched.  On
    success every re-materialized fragment is indexed, unlinked, and
    audit-checksummed; the machine's thread list is left clean for the
    first request. *)
let load (rt : runtime) ~(image_digest : int) ~(path : string) :
    (summary, error) result =
  let ( let* ) = Result.bind in
  let malformed r = Result.map_error (fun e -> Malformed e) r in
  let payload c =
    let nthreads =
      Codec.check ~field:"thread count" ~lo:0 ~hi:(max_threads + 1)
        (Codec.varint c)
    in
    let count = Codec.varint in
    let prev = ref (-1) in
    List.init nthreads (fun _ ->
        let tid =
          Codec.check ~field:"thread id" ~lo:(!prev + 1) ~hi:max_threads
            (Codec.varint c)
        in
        prev := tid;
        let entries =
          Codec.list ~field:"index entry count" ~max:max_count count
            read_index_entry c
        in
        let fragments () =
          Codec.list ~field:"fragment count" ~max:max_count count
            (read_fragment ~tid) c
        in
        let bbs = fragments () in
        (tid, entries, bbs @ fragments ()))
  in
  let materialize_all sections =
    let fragments = ref 0 and skipped = ref 0 in
    List.iter
      (fun (tid, entries, frags) ->
        match thread_state_for rt tid with
        | None -> skipped := !skipped + List.length frags
        | Some ts ->
            List.iter (fun apply -> apply ts) entries;
            (* basic blocks precede traces *)
            List.iter
              (fun f -> if materialize rt ts f then incr fragments else incr skipped)
              frags)
      sections;
    (* drop the fabricated threads; per-tid state (the warm cache)
       survives and re-attaches on the first request *)
    Vm.Machine.reset_for_run rt.machine;
    { fragments = !fragments; skipped = !skipped }
  in
  let header c =
    let m = Codec.raw c (String.length magic) in
    let version = Codec.u32 c in
    let opts_digest = Codec.u32 c in
    (m, version, opts_digest, Codec.u32 c)
  in
  let hlen = String.length magic + 12 in
  let result =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> Error Truncated
    | s when String.length s < hlen + 4 -> Error Truncated
    | s ->
        let n = String.length s in
        let* m, version, opts_digest, img_digest =
          malformed (Codec.decode ~limit:hlen header s)
        in
        let* stored_sum = malformed (Codec.decode ~pos:(n - 4) Codec.u32 s) in
        if m <> magic then Error Bad_magic
        else if version <> format_version then Error (Bad_version version)
        else if Codec.fnv32 s ~pos:0 ~len:(n - 4) <> stored_sum then
          Error Checksum_mismatch
        else if opts_digest <> Options.digest rt.opts then
          Error Options_mismatch
        else if img_digest <> image_digest land 0xffff_ffff then
          Error Image_mismatch
        else
          Result.map materialize_all
            (malformed (Codec.decode ~pos:hlen ~limit:(n - 4) payload s))
  in
  (match result with
  | Ok _ -> rt.stats.Stats.persist_loads <- rt.stats.Stats.persist_loads + 1
  | Error _ ->
      rt.stats.Stats.persist_load_failures <-
        rt.stats.Stats.persist_load_failures + 1);
  result

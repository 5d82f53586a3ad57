(** Timed calls into the layers under test: native references, fresh
    runs under the runtime, one-shot replays over harvested blocks, cache
    image round trips, and the runtime's counters per operation. *)

open Workloads
open Measure

(* ------------------------------------------------------------------ *)
(* Native references and in-process runs                              *)
(* ------------------------------------------------------------------ *)

type native = { out : int list; n_insns : int; n_cycles : int; interp_ns : int }

(* The reference: the program on the bare VM interpreter, no runtime. *)
let native_ref (w : Workload.t) : native =
  let image = Asm.Assemble.assemble w.Workload.program in
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m w.Workload.input;
  ignore (Asm.Image.load m image);
  let t0 = Span.now_ns () in
  let o = Vm.Sched.run ~emulate:false m in
  let t1 = Span.now_ns () in
  if o.Vm.Sched.stop <> Vm.Interp.Halted then
    failwith (w.Workload.name ^ ": native reference did not halt");
  { out = Vm.Machine.output m; n_insns = o.Vm.Sched.insns;
    n_cycles = o.Vm.Sched.cycles; interp_ns = t1 - t0 }

type run = {
  asm_ns : int;      (** assemble *)
  machine_ns : int;
  load_ns : int;     (** image load *)
  create_ns : int;   (** engine creation *)
  run_ns : int;      (** [Rio.run] *)
  cycles : int;
  ok : bool;
  stats : Rio.Stats.t;
}

let setup_ns r = r.asm_ns + r.machine_ns + r.load_ns + r.create_ns
let host_ns r = setup_ns r + r.run_ns

(* One fresh run, as rio_run does it: assemble, machine, image load,
   engine, run; checked against the native output. *)
let run_program ~opts ~req (w : Workload.t) (nat : native) : run =
  Span.with_ ~req "gen" "program_run" (fun () ->
      let t0 = Span.now_ns () in
      let image =
        Span.with_ ~req "asm" "assemble" (fun () ->
            Asm.Assemble.assemble w.Workload.program)
      in
      let t1 = Span.now_ns () in
      let m = Span.with_ ~req "vm" "machine_create" (fun () -> Vm.Machine.create ()) in
      let t2 = Span.now_ns () in
      Span.with_ ~req "asm" "image_load" (fun () ->
          Vm.Machine.set_input m w.Workload.input;
          ignore (Asm.Image.load m image));
      let t3 = Span.now_ns () in
      let rt = Span.with_ ~req "engine" "create" (fun () -> Rio.create ~opts m) in
      let t4 = Span.now_ns () in
      let o = Span.with_ ~req "engine" "run" (fun () -> Rio.run rt) in
      let t5 = Span.now_ns () in
      { asm_ns = t1 - t0; machine_ns = t2 - t1; load_ns = t3 - t2;
        create_ns = t4 - t3; run_ns = t5 - t4; cycles = o.Rio.cycles;
        ok = o.Rio.reason = Rio.All_exited && Vm.Machine.output m = nat.out;
        stats = Rio.stats rt })

(* ------------------------------------------------------------------ *)
(* One-shot layer replays                                             *)
(* ------------------------------------------------------------------ *)

(* The basic blocks of each program's text, by linear sweep. *)
let harvest_blocks (ws : Workload.t list) : (Bytes.t * int) list =
  List.concat_map
    (fun (w : Workload.t) ->
      let image = Asm.Assemble.assemble w.Workload.program in
      let text = image.Asm.Image.text and base = image.Asm.Image.text_base in
      let fetch a = Char.code (Bytes.get text (a - base)) in
      let stop = base + Bytes.length text in
      let rec go start pc acc =
        if pc >= stop then if pc > start then (start, pc) :: acc else acc
        else
          match Isa.Decode.opcode_eflags fetch pc with
          | Error _ -> if pc > start then (start, pc) :: acc else acc
          | Ok (op, len) ->
              if Isa.Opcode.is_cti op then go (pc + len) (pc + len) ((start, pc + len) :: acc)
              else go start (pc + len) acc
      in
      List.rev_map
        (fun (s, e) -> (Bytes.sub text (s - base) (e - s), s))
        (go base base []))
    ws

(* Level-3 instrs of one block (decoded, raw bits valid). *)
let decoded_block (raw, addr) : Rio.Instr.t list =
  let fetch = Isa.Decode.fetch_bytes raw in
  let rec split off acc =
    if off >= Bytes.length raw then List.rev acc
    else
      let len = Isa.Decode.boundary_exn fetch off in
      let i = Rio.Instr.of_raw ~addr:(addr + off) (Bytes.sub raw off len) in
      Rio.Instr.uplevel3 i;
      split (off + len) (i :: acc)
  in
  split 0 []

(* Median ns per instruction over [reps] timed passes; [prep] runs
   untimed before each pass. *)
let time_per_insn ~reps ~insns ~prep f =
  median
    (List.init reps (fun _ ->
         let x = prep () in
         let t0 = Span.now_ns () in
         f x;
         float_of_int (Span.now_ns () - t0) /. float_of_int insns))

(* isa decode, instr encode (level 4: the full template encoder) and the
   -O3 pass pipeline, replayed over the workload's own blocks. *)
let layer_replays (ws : Workload.t list) : (string * float) list =
  let blocks = harvest_blocks ws in
  let decoded = List.map decoded_block blocks in
  let insns = List.fold_left (fun a b -> a + List.length b) 0 decoded in
  let decode =
    time_per_insn ~reps:7 ~insns ~prep:ignore (fun () ->
        Span.with_ "isa" "decode_replay" (fun () ->
            List.iter
              (fun (raw, _) ->
                let fetch = Isa.Decode.fetch_bytes raw in
                let off = ref 0 in
                while !off < Bytes.length raw do
                  off := !off + snd (Isa.Decode.full_exn fetch !off)
                done)
              blocks))
  in
  let level4 =
    List.map
      (List.map (fun i ->
           let i = Rio.Instr.copy i in
           Rio.Instr.invalidate_raw i;
           i))
      decoded
  in
  let encode =
    time_per_insn ~reps:7 ~insns ~prep:ignore (fun () ->
        Span.with_ "instr" "encode_replay" (fun () ->
            List.iter
              (List.iter (fun i -> ignore (Rio.Instr.encode ~pc:(Rio.Instr.addr i) i)))
              level4))
  in
  let passes = Rio.Options.passes_at_level 3 in
  let fresh_ils () =
    List.map
      (fun b ->
        let il = Rio.Instrlist.create () in
        List.iter (fun i -> Rio.Instrlist.append il (Rio.Instr.copy i)) b;
        il)
      decoded
  in
  let opt =
    time_per_insn ~reps:7 ~insns ~prep:fresh_ils (fun ils ->
        Span.with_ "opt" "pass_replay" (fun () ->
            let c = Rio.Opt.fresh_counters () in
            List.iter (Rio.Opt.run_passes ~family:Vm.Cost.Pentium4 c passes) ils))
  in
  [ ("isa.decode_ns_per_insn", decode); ("instr.encode_ns_per_insn", encode);
    ("opt.pass_ns_per_insn", opt) ]

(* One instance per program built by hand, timed layer by layer, then
   one request served on it; returns the timings and the warm engines. *)
let instance_probe ~opts (items : (Workload.t * Loadgen.req) list) =
  let timings = ref [] in
  let kept =
    List.map
      (fun ((w : Workload.t), (r : Loadgen.req)) ->
        let t0 = Span.now_ns () in
        let image = Asm.Assemble.assemble w.Workload.program in
        let t1 = Span.now_ns () in
        let m = Vm.Machine.create () in
        let t2 = Span.now_ns () in
        ignore (Asm.Image.load m image);
        let t3 = Span.now_ns () in
        let rt = Rio.create ~opts m in
        let t4 = Span.now_ns () in
        Vm.Machine.set_input m r.Loadgen.input;
        let o = Rio.run rt in
        if o.Rio.reason <> Rio.All_exited || Vm.Machine.output m <> r.Loadgen.expect then
          failwith (w.Workload.name ^ ": probe request diverged");
        timings := (t1 - t0, t2 - t1, t3 - t2, t4 - t3) :: !timings;
        (w, rt))
      items
  in
  let med f = median (List.map (fun x -> us_of_ns (f x)) !timings) in
  ( [ ("asm.assemble_us", med (fun (a, _, _, _) -> a));
      ("vm.machine_create_us", med (fun (_, m, _, _) -> m));
      ("asm.image_load_us", med (fun (_, _, l, _) -> l));
      ("engine.create_us", med (fun (_, _, _, c) -> c)) ],
    kept )

(* Save an engine's cache image and load it into a fresh engine over the
   same program: persist.save_ms / load_ms / image_kb / refused. *)
let persist_roundtrip ~dir ~opts (items : (Workload.t * Rio.t) list) :
    (string * float) list =
  let saves = ref [] and loads = ref [] and kb = ref [] and refused = ref 0 in
  List.iteri
    (fun k ((w : Workload.t), rt) ->
      let image = Asm.Assemble.assemble w.Workload.program in
      let digest = Asm.Image.digest image in
      let path = Filename.concat dir (Printf.sprintf "roundtrip-%d.riocache" k) in
      let t0 = Span.now_ns () in
      ignore
        (Span.with_ "persist" "save" (fun () ->
             Rio.Engine.save_image rt ~image_digest:digest ~path));
      let t1 = Span.now_ns () in
      let m = Vm.Machine.create () in
      Asm.Image.load_cold m image;
      let fresh = Rio.create ~opts m in
      let t2 = Span.now_ns () in
      (match
         Span.with_ "persist" "load" (fun () ->
             Rio.Engine.load_image fresh ~image_digest:digest ~path)
       with
      | Ok _ -> ()
      | Error _ -> incr refused);
      let t3 = Span.now_ns () in
      saves := ms_of_ns (t1 - t0) :: !saves;
      loads := ms_of_ns (t3 - t2) :: !loads;
      kb := float_of_int (Unix.stat path).Unix.st_size /. 1024.0 :: !kb;
      Sys.remove path)
    items;
  [ ("persist.save_ms", median !saves); ("persist.load_ms", median !loads);
    ("persist.image_kb", median !kb); ("persist.refused", float_of_int !refused) ]

(* A pool boot exactly as rio_serve builds it. *)
let boot_of ?cache ~opts (w : Workload.t) : string * Rio.Pool.boot =
  let image = Asm.Assemble.assemble w.Workload.program in
  ( w.Workload.name,
    { Rio.Pool.boot_machine =
        (fun () ->
          let m = Vm.Machine.create () in
          Asm.Image.load_cold m image;
          m);
      boot_entry = image.Asm.Image.entry;
      boot_stack_top = Asm.Image.default_stack_top;
      boot_restore = (fun m ~zeroed -> Asm.Image.restore m image ~zeroed);
      boot_opts = opts;
      boot_client = (fun () -> Rio.Types.null_client);
      boot_image_digest = Asm.Image.digest image;
      boot_cache = cache } )

let pool_request id (r : Loadgen.req) : Rio.Pool.request =
  { Rio.Pool.req_id = id; req_key = r.Loadgen.key; req_seed = r.Loadgen.seed;
    req_input = r.Loadgen.input; req_expect = Some r.Loadgen.expect }

type replay = {
  rp_lat_ms : float list;      (** completion - scheduled, ok requests *)
  rp_service_ms : float list;  (** res_secs *)
  rp_wait_ms : float list;     (** completion - submit - service *)
  rp_results : Rio.Pool.result list;
  rp_failed : int;             (** shed or not ok *)
  rp_snap : Rio.Pool.snapshot;
  rp_prewarm_boots : int;      (** instances built at pool boot *)
}

(* The in-process twin of the socket path: an arrival schedule through
   Pool.try_submit / take_results on a two-domain pre-warmed pool, as
   rio_serve configures it, with no wire and no select loop.  Its spans
   are rooted in [replay], not [gen]: they are not the workload's own
   operations. *)
let pool_replay ~boots ~(warm : Loadgen.req list) ~(offsets : int array)
    ~(reqs : Loadgen.req array) : replay =
  let cfg = { Rio.Options.default_pool with Rio.Options.domains = 2; prewarm = true } in
  let pool = Rio.Pool.create ~cfg ~boots () in
  Fun.protect ~finally:(fun () -> Rio.Pool.shutdown pool) (fun () ->
      let prewarm_boots = (Rio.Pool.stats pool).Rio.Pool.snap_prewarm_boots in
      List.iteri
        (fun i r ->
          match Rio.Pool.submit pool (pool_request (-1 - i) r) with
          | Ok () -> ()
          | Error e -> failwith (Rio.Pool.reject_to_string e))
        warm;
      ignore (Rio.Pool.drain pool);
      Rio.Pool.reset_counters pool;
      let n = Array.length reqs in
      let span = Array.make n (-1) and sched = Array.make n 0 and sub = Array.make n 0 in
      let lat = ref [] and service = ref [] and wait = ref [] and results = ref [] in
      let failed = ref 0 and outstanding = ref 0 in
      let t_start = Span.now_ns () + 5_000_000 in
      let deadline = t_start + offsets.(n - 1) + 60_000_000_000 in
      let i = ref 0 in
      while !i < n || !outstanding > 0 do
        let now = Span.now_ns () in
        if now > deadline then raise (Child.Timeout "in-process replay");
        if !i < n && t_start + offsets.(!i) <= now then begin
          let id = !i in
          sched.(id) <- t_start + offsets.(id);
          span.(id) <- Span.reserve ();
          (match
             Span.with_ ~parent:span.(id) ~req:id "pool" "try_submit" (fun () ->
                 Rio.Pool.try_submit pool (pool_request id reqs.(id)))
           with
          | Ok () -> incr outstanding
          | Error _ -> incr failed);
          sub.(id) <- Span.now_ns ();
          incr i
        end
        else
          match Rio.Pool.take_results pool with
          | [] -> Unix.sleepf 0.0002
          | rs ->
              let d = Span.now_ns () in
              List.iter
                (fun (r : Rio.Pool.result) ->
                  let id = r.Rio.Pool.res_id in
                  decr outstanding;
                  results := r :: !results;
                  let svc = int_of_float (r.Rio.Pool.res_secs *. 1e9) in
                  let inpool = d - sub.(id) in
                  Span.record ~parent:span.(id) ~req:id ~layer:"pool" ~op:"in_pool" sub.(id) d;
                  Span.record ~parent:span.(id) ~req:id ~layer:"engine" ~op:"service"
                    (d - min svc inpool) d;
                  Span.record ~id:span.(id) ~req:id ~layer:"replay" ~op:"request" sched.(id) d;
                  if r.Rio.Pool.res_ok then begin
                    lat := ms_of_ns (d - sched.(id)) :: !lat;
                    service := ms_of_ns svc :: !service;
                    wait := ms_of_ns (max 0 (inpool - svc)) :: !wait
                  end
                  else incr failed)
                rs
      done;
      { rp_lat_ms = !lat; rp_service_ms = !service; rp_wait_ms = !wait;
        rp_results = !results; rp_failed = !failed; rp_snap = Rio.Pool.stats pool;
        rp_prewarm_boots = prewarm_boots })

let pool_layer (rp : replay) : (string * float) list =
  let s = rp.rp_snap in
  [ ("pool.warm_hits", float_of_int s.Rio.Pool.snap_warm_hits);
    ("pool.cold_boots", float_of_int s.Rio.Pool.snap_cold_boots);
    ("pool.batch_hits", float_of_int s.Rio.Pool.snap_batch_hits);
    ("pool.steals", float_of_int s.Rio.Pool.snap_steals);
    ("pool.shed", float_of_int s.Rio.Pool.snap_shed);
    ("pool.prewarm_boots", float_of_int rp.rp_prewarm_boots);
    ("pool.service_ms_p50", quantile rp.rp_service_ms 0.50);
    ("pool.service_ms_p99", quantile rp.rp_service_ms 0.99);
    ("pool.wait_ms_p50", quantile rp.rp_wait_ms 0.50);
    ("pool.wait_ms_p99", quantile rp.rp_wait_ms 0.99) ]

(* Client-side codec cost of a workload's frames: each request encoded,
   and the response carrying its native output decoded; per frame, over
   enough repetitions to time. *)
let wire_replay (reqs : Loadgen.req list) : (string * float) list =
  let msgs =
    List.mapi
      (fun i (r : Loadgen.req) ->
        Rio.Wire.Run
          { c_id = i; c_key = r.Loadgen.key; c_seed = r.Loadgen.seed;
            c_input = r.Loadgen.input; c_expect = None })
      reqs
  in
  let responses =
    List.mapi
      (fun i (r : Loadgen.req) ->
        Rio.Wire.encode_response
          { Rio.Wire.r_id = i; r_status = Rio.Wire.St_ok; r_warm = true;
            r_cycles = r.Loadgen.cycles; r_output = r.Loadgen.expect })
      reqs
  in
  let reps = max 1 (20_000 / List.length reqs) in
  let per_frame f =
    median
      (List.init 5 (fun _ ->
           let t0 = Span.now_ns () in
           for _ = 1 to reps do
             f ()
           done;
           us_of_ns (Span.now_ns () - t0) /. float_of_int (reps * List.length reqs)))
  in
  [ ("wire.encode_us",
      per_frame (fun () -> List.iter (fun m -> ignore (Rio.Wire.encode_client_msg m)) msgs));
    ("wire.decode_us",
      per_frame (fun () -> List.iter (fun s -> ignore (Rio.Wire.decode_response s)) responses)) ]

(* ------------------------------------------------------------------ *)
(* Engine counters per operation                                      *)
(* ------------------------------------------------------------------ *)

let engine_counts ~(ops : int) ~(cycles : int) (s : Rio.Stats.t) :
    (string * float) list =
  let per x = float_of_int x /. float_of_int ops in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  Rio.Stats.
    [ ("blockbuild.blocks", per s.blocks_built);
      ("trace.traces", per s.traces_built);
      ("trace.head_promotions", per s.trace_head_promotions);
      ("opt.traces", per s.opt_traces);
      ("opt.insns_removed", per s.opt_insns_removed);
      ("opt.reoptimized", per s.traces_reoptimized);
      ("opt.spec_guards", per (s.spec_guards_ind + s.spec_guards_const));
      ("opt.spec_violations", per s.spec_violations);
      ("opt.spec_despecs", per s.spec_despecs);
      ("emit.cache_kb", per (s.cache_bytes_bb + s.cache_bytes_trace) /. 1024.0);
      ("link.direct_links", per s.direct_links);
      ("link.unlinks", per s.unlinks);
      ("engine.runtime_cycles_share", ratio s.runtime_cycles cycles);
      ("engine.sim_cycles_per_req", per cycles);
      ("cachealloc.evictions", per s.evictions);
      ("cachealloc.evicted_kb", per s.evicted_bytes /. 1024.0);
      ("cachealloc.compactions", per s.compactions);
      ("cachealloc.moved_kb", per s.moved_bytes /. 1024.0);
      ("cachealloc.traces_dropped", per s.traces_dropped);
      ("cachealloc.full_flushes", per s.cache_flushes);
      ("ibl.lookups", per s.ibl_lookups);
      ("ibl.miss_ratio", ratio s.ibl_misses s.ibl_lookups);
      ("dispatch.context_switches", per s.context_switches);
      ("dispatch.trace_entry_share", ratio s.enters_trace (s.enters_bb + s.enters_trace));
      ("persist.fragments_preloaded", per s.fragments_preloaded) ]

let peak_rss_self () = Child.peak_rss_mb (Unix.getpid ())

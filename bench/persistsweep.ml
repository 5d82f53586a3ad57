(** Persist sweep: the warm-boot gate for the persistent code cache
    (DESIGN.md §6.8), written to BENCH_persist.json.

    Two parts, both hard gates:

    {b Warm vs cold boot.}  For every workload in the suite, prime an
    instance over a few requests, snapshot it with
    {!Rio.Engine.save_image}, then serve a batch of first-requests two
    ways: fresh engines (cold boot, every block and trace rebuilt) and
    image-loaded engines (warm boot, fragments re-materialized by
    relocation replay).  In full mode the two passes cover 1000 first
    requests.  Every run must be output-identical to the native
    reference and every image load must be accepted.  The gated metric
    is the {e boot tax}: modelled cycles spent in the runtime during a
    first request (block building, trace selection, optimization,
    dispatch) — warm boot must cut it by >= 1.5x on the geomean.  The
    application retires the same instructions either way, so this is
    exactly the MIPS ratio over the boot window; whole-request
    simulated time (diluted by app execution, reported alongside) must
    not regress.

    {b Compaction.}  A directed two-thread scenario builds the
    fragmentation pattern FIFO eviction cannot solve: thread A parks
    inside its own trace mid-region (quantum expiry pins it), and
    thread B then needs a contiguous trace allocation larger than any
    hole but smaller than total free space.  With compaction disabled
    the trace is dropped (No_room with only pinned fragments left);
    with compaction enabled the pinned trace slides toward the region
    base — the parked thread's pc moves with it — and the allocation
    succeeds.  The gate: the FIFO-only run drops at least one trace,
    the compacting run drops none, and both produce native output. *)

open Workloads

let pr fmt = Printf.printf fmt

let prime_requests = 2
let batch ~quick = if quick then 3 else 50

(* ------------------------------------------------------------------ *)
(* Warm vs cold boot                                                  *)
(* ------------------------------------------------------------------ *)

type wl_row = {
  r_name : string;
  r_persisted : int;
  r_loaded : int;
  r_refused : int;
  r_cold_cycles : int;
  r_warm_cycles : int;
  r_cold_rt_cycles : int;  (* modelled cycles spent in the runtime *)
  r_warm_rt_cycles : int;
  r_cold_blocks : int;
  r_warm_blocks : int;
  r_cold_host_s : float;
  r_warm_host_s : float;
  r_total_speedup : float;  (* cold/warm total simulated cycles *)
  r_boot_speedup : float;   (* cold/warm runtime cycles: the boot tax *)
  r_divergent : int;
}

(* One pool-style request on a dedicated engine: cold-loaded image,
   optional saved-image warm boot, one thread, the request's input. *)
let serve_once ?cache ~opts image input =
  let m = Vm.Machine.create () in
  Asm.Image.load_cold m image;
  let rt = Rio.Engine.create ~opts m in
  let loaded =
    Option.map
      (fun path ->
        Rio.Engine.load_image rt ~image_digest:(Asm.Image.digest image) ~path)
      cache
  in
  ignore
    (Vm.Machine.add_thread m ~entry:image.Asm.Image.entry
       ~stack_top:Asm.Image.default_stack_top);
  Vm.Machine.set_input m input;
  let o = Rio.Engine.run rt in
  (loaded, o, Vm.Machine.output m, rt)

let measure_workload ~quick ~opts (w : Workload.t) : wl_row =
  let image = Asm.Assemble.assemble w.Workload.program in
  let digest = Asm.Image.digest image in
  let input_for seed = Workload.request_input ~seed @ w.Workload.input in
  (* prime one long-lived instance the way the pool would: a few warm
     requests, traces and profiles accumulating, then snapshot *)
  let path = Filename.temp_file "persistsweep" ".riocache" in
  let persisted =
    let m = Vm.Machine.create () in
    Asm.Image.load_cold m image;
    let rt = Rio.Engine.create ~opts m in
    for k = 0 to prime_requests - 1 do
      if k > 0 then
        Rio.Engine.reset_for_reuse rt
          ~restore:(fun m ~zeroed -> Asm.Image.restore m image ~zeroed);
      ignore
        (Vm.Machine.add_thread m ~entry:image.Asm.Image.entry
           ~stack_top:Asm.Image.default_stack_top);
      Vm.Machine.set_input m (input_for k);
      ignore (Rio.Engine.run rt)
    done;
    Rio.Engine.save_image rt ~image_digest:digest ~path
  in
  let n = batch ~quick in
  let divergent = ref 0 in
  let run_batch ~cache () =
    let cycles = ref 0 and rt_cycles = ref 0 and blocks = ref 0 in
    let loads = ref 0 and refused = ref 0 in
    let t0 = Sweep.time_now () in
    for k = 0 to n - 1 do
      let seed = 1000 + k in
      let loaded, o, out, rt =
        serve_once ?cache ~opts image (input_for seed)
      in
      (match loaded with
      | Some (Ok _) -> incr loads
      | Some (Error _) -> incr refused
      | None -> ());
      if
        not
          (Sweep.check
             ~label:(Printf.sprintf "seed %d" seed)
             (Workload.with_input w (input_for seed))
             ~ok:(o.Rio.Engine.reason = Rio.Engine.All_exited)
             out)
      then incr divergent;
      cycles := !cycles + o.Rio.Engine.cycles;
      rt_cycles := !rt_cycles + (Rio.Engine.stats rt).Rio.Stats.runtime_cycles;
      blocks := !blocks + (Rio.Engine.stats rt).Rio.Stats.blocks_built
    done;
    (!cycles, !rt_cycles, !blocks, !loads, !refused, Sweep.time_now () -. t0)
  in
  let cold_cycles, cold_rt, cold_blocks, _, _, cold_s =
    run_batch ~cache:None ()
  in
  let warm_cycles, warm_rt, warm_blocks, loads, refused, warm_s =
    run_batch ~cache:(Some path) ()
  in
  (try Sys.remove path with Sys_error _ -> ());
  {
    r_name = w.Workload.name;
    r_persisted = persisted;
    r_loaded = loads;
    r_refused = refused;
    r_cold_cycles = cold_cycles;
    r_warm_cycles = warm_cycles;
    r_cold_rt_cycles = cold_rt;
    r_warm_rt_cycles = warm_rt;
    r_cold_blocks = cold_blocks;
    r_warm_blocks = warm_blocks;
    r_cold_host_s = cold_s;
    r_warm_host_s = warm_s;
    r_total_speedup =
      float_of_int cold_cycles /. float_of_int (max 1 warm_cycles);
    r_boot_speedup = float_of_int cold_rt /. float_of_int (max 1 warm_rt);
    r_divergent = !divergent;
  }

(* ------------------------------------------------------------------ *)
(* Compaction: the fragmentation pattern FIFO eviction cannot solve   *)
(* ------------------------------------------------------------------ *)

(* Thread B (main) gets a medium-bodied hot loop (trace 1), then a
   large-bodied hot loop (trace 2).  Thread A (worker) spins in a small
   hot loop long enough to stay parked in the cache for B's whole run.
   Allocation order in the trace region is [trace1][traceA][tail]:
   trace 2 is bigger than trace 1 and bigger than the tail, so after
   FIFO evicts trace 1 the pinned traceA still splits the free space
   and the allocation fails without compaction. *)
let compaction_program =
  let open Asm.Dsl in
  let body_medium =
    List.concat (List.init 12 (fun _ -> [ add edx (i 1); add esi (i 3) ]))
  in
  let body_large =
    List.concat (List.init 40 (fun _ -> [ add edx (i 2); add edi (i 5) ]))
  in
  program ~name:"compaction-gate" ~entry:"main"
    ~text:
      ([
         label "main";
         mov ecx (i 0);
         mov edx (i 0);
         mov esi (i 0);
         mov edi (i 0);
         label "bloop1";
       ]
      @ body_medium
      @ [
          inc ecx;
          cmp ecx (i 3000);
          j l "bloop1";
          mov ecx (i 0);
          label "bloop2";
        ]
      @ body_large
      @ [
          inc ecx;
          cmp ecx (i 400);
          j l "bloop2";
          out edx;
          out esi;
          out edi;
          hlt;
          (* the worker writes nothing: output order must not depend on
             which thread halts first under either scheduler *)
          label "worker";
        ]
      (* warmup: a run of distinct loops, each below the trace
         threshold, delays the worker's hot trace past the main
         thread's first trace so it lands mid-region — where eviction
         alone cannot open a contiguous run but sliding can *)
      @ List.concat
          (List.init 8 (fun k ->
               let lbl = Printf.sprintf "warm%d" k in
               [ mov ebx (i 0); label lbl ]
               @ List.concat
                   (List.init 8 (fun _ -> [ add eax (i 1); add eax (i 2) ]))
               @ [ inc ebx; cmp ebx (i 45); j l lbl ]))
      @ [
          mov ebx (i 0);
          label "aloop";
          inc ebx;
          cmp ebx (i 120_000);
          j l "aloop";
          hlt;
        ])
    ()

type compaction_run = {
  c_dropped : int;
  c_compactions : int;
  c_moved : int;
  c_output_ok : bool;
}

let run_compaction_case ~compacting : compaction_run =
  let image = Asm.Assemble.assemble compaction_program in
  let opts =
    {
      Rio.Options.default with
      opt_level = 2;
      (* the quantum must expire between B building trace 1 and B's
         second loop getting hot, so A's trace lands between B's two *)
      quantum = 12_000;
      trace_threshold = 50;
      (* a short bb ceiling lowers the FIFO capacity floor, letting the
         trace region be small enough that B's two traces plus A's
         cannot coexist *)
      max_bb_insns = 16;
      cache_capacity = Some 768;
      flush_policy = Rio.Options.Flush_fifo;
      cache_compaction = compacting;
      max_cycles = max_int / 2;
    }
  in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Asm.Image.spawn m image "worker");
  let rt = Rio.Engine.create ~opts m in
  let o = Rio.Engine.run rt in
  let s = Rio.Engine.stats rt in
  let native =
    let nm = Vm.Machine.create () in
    ignore (Asm.Image.load nm image);
    ignore (Asm.Image.spawn nm image "worker");
    ignore (Vm.Sched.run ~emulate:false nm);
    Vm.Machine.output nm
  in
  {
    c_dropped = s.Rio.Stats.traces_dropped;
    c_compactions = s.Rio.Stats.compactions;
    c_moved = s.Rio.Stats.fragments_moved;
    c_output_ok =
      Sweep.tally
        (o.Rio.Engine.reason = Rio.Engine.All_exited
        && Vm.Machine.output m = native);
  }

(* ------------------------------------------------------------------ *)

let run { Sweep.quick; _ } =
  let wls = List.map Workload.serving_variant Suite.all in
  pr "\n=== Persist sweep (%s mode; %d workloads; batch %d) ===\n"
    (if quick then "quick" else "full")
    (List.length wls) (batch ~quick);
  let opts =
    { Rio.Options.default with opt_level = 2; max_cycles = max_int / 2 }
  in
  pr "%-12s %6s %6s %8s %12s %12s %7s %7s\n" "workload" "frags" "loads"
    "refused" "cold-rtcyc" "warm-rtcyc" "boot" "total";
  let rows = List.map (fun w -> measure_workload ~quick ~opts w) wls in
  List.iter
    (fun r ->
      pr "%-12s %6d %6d %8d %12d %12d %6.2fx %6.2fx\n%!" r.r_name r.r_persisted
        r.r_loaded r.r_refused r.r_cold_rt_cycles r.r_warm_rt_cycles
        r.r_boot_speedup r.r_total_speedup)
    rows;
  let boot_speedup = Sweep.geomean (List.map (fun r -> r.r_boot_speedup) rows) in
  let total_speedup =
    Sweep.geomean (List.map (fun r -> r.r_total_speedup) rows)
  in
  let divergences = List.fold_left (fun a r -> a + r.r_divergent) 0 rows in
  let refused = List.fold_left (fun a r -> a + r.r_refused) 0 rows in
  let cold_host = List.fold_left (fun a r -> a +. r.r_cold_host_s) 0.0 rows in
  let warm_host = List.fold_left (fun a r -> a +. r.r_warm_host_s) 0.0 rows in
  pr
    "geomean boot speedup (cold/warm runtime cycles on a first request): \
     %.2fx\n"
    boot_speedup;
  pr "geomean total-request speedup (simulated time): %.2fx\n" total_speedup;
  pr "host wall time (informational): cold %.3fs, warm %.3fs\n%!" cold_host
    warm_host;

  pr "\n--- compaction gate ---\n";
  let fifo_only = run_compaction_case ~compacting:false in
  let compacted = run_compaction_case ~compacting:true in
  pr
    "fifo-only:  dropped %d  (output %s)\ncompacting: dropped %d  \
     compactions %d  moved %d  (output %s)\n%!"
    fifo_only.c_dropped
    (if fifo_only.c_output_ok then "ok" else "BAD")
    compacted.c_dropped compacted.c_compactions compacted.c_moved
    (if compacted.c_output_ok then "ok" else "BAD");

  let open Rio.Json in
  ( [
      ("workloads", Int (List.length rows));
      ("batch", Int (batch ~quick));
      ("geomean_boot_speedup", Float boot_speedup);
      ("geomean_total_speedup", Float total_speedup);
      ("divergences", Int divergences);
      ("loads_refused", Int refused);
      ( "compaction",
        Obj
          [
            ("fifo_only_dropped", Int fifo_only.c_dropped);
            ("compacting_dropped", Int compacted.c_dropped);
            ("compactions", Int compacted.c_compactions);
            ("fragments_moved", Int compacted.c_moved);
            ( "outputs_ok",
              Bool (fifo_only.c_output_ok && compacted.c_output_ok) );
          ] );
      ( "grid",
        Arr
          (List.map
             (fun r ->
               Obj
                 [
                   ("workload", Str r.r_name);
                   ("fragments_persisted", Int r.r_persisted);
                   ("images_loaded", Int r.r_loaded);
                   ("loads_refused", Int r.r_refused);
                   ("cold_cycles", Int r.r_cold_cycles);
                   ("warm_cycles", Int r.r_warm_cycles);
                   ("cold_runtime_cycles", Int r.r_cold_rt_cycles);
                   ("warm_runtime_cycles", Int r.r_warm_rt_cycles);
                   ("cold_blocks_built", Int r.r_cold_blocks);
                   ("warm_blocks_built", Int r.r_warm_blocks);
                   ("cold_host_seconds", Float r.r_cold_host_s);
                   ("warm_host_seconds", Float r.r_warm_host_s);
                   ("boot_speedup", Float r.r_boot_speedup);
                   ("total_speedup", Float r.r_total_speedup);
                   ("divergent", Int r.r_divergent);
                 ])
             rows) );
    ],
    [
      Sweep.at_most "image loads refused" ~bound:0.0 (float_of_int refused);
      Sweep.at_least "geomean warm-boot speedup (runtime cycles)" ~bound:1.5
        boot_speedup;
      Sweep.at_least "geomean whole-request speedup" ~bound:1.0 total_speedup;
      Sweep.at_least "FIFO-only trace drops (scenario not vacuous)" ~bound:1.0
        (float_of_int fifo_only.c_dropped);
      Sweep.at_most "trace drops with compaction" ~bound:0.0
        (float_of_int compacted.c_dropped);
    ] )

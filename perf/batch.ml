(** The in-process workloads, cold and pressure: fresh runs under the
    runtime, as rio_run makes them. *)

open Workloads
open Measure
open Layers

type cfg = {
  programs : Workload.t list;
  opts : Rio.Options.t;
  min_rounds : int;
  max_rounds : int;
}

(* rio_run's defaults: -O0, unbounded cache, null client *)
let rio_run_opts = { Rio.Options.default with Rio.Options.max_cycles = max_int / 2 }

let cold_cfg ~quick =
  { programs = Suite.all; opts = rio_run_opts;
    min_rounds = (if quick then 2 else 5); max_rounds = (if quick then 2 else 30) }

(* four runs per round, so each round has its own tail *)
let pressure_cfg ~quick =
  { programs = List.init 4 (fun _ -> Option.get (Suite.by_name "gcc"));
    opts =
      { rio_run_opts with
        Rio.Options.opt_level = 3;
        cache_capacity = Some 8192;
        flush_policy = Rio.Options.Flush_fifo;
        cache_compaction = true };
    min_rounds = (if quick then 2 else 3); max_rounds = (if quick then 2 else 15) }

(* Rounds of fresh runs of every program, in a seeded order, until the
   time budget is spent.  Every round does identical work, so counts and
   simulated cycles must repeat exactly; host times are scaled by the
   yardstick ticked after every run of their round, then reduced by
   medians over rounds.  With tracing, every other round is traced and
   the rest give the untraced reference for the tracing overhead. *)
let run ~(cfg : cfg) ~seed ~seconds ~traced ~dir : outcome =
  let progs = Array.of_list cfg.programs in
  let np = Array.length progs in
  let natives = Array.map native_ref progs in
  Gc.full_major ();
  let rng = Random.State.make [| seed; 0xc01d |] in
  let failed = ref 0 and attempted = ref 0 in
  (* per program: scaled host ns per round; simulated cycles seen *)
  let host = Array.make np [] and cyc = Array.make np [] in
  let rounds = ref [] (* (scaled round ns, scaled setup ns, traced) *) in
  let lat_ms = ref [] and round_lat = ref [] and yard = ref [] in
  let per_run = ref [] (* raw (create, machine, assemble, load, run) ns *) in
  let round_stats = ref None and first_round_ns = ref 0 in
  let replayed = ref 0 and replay_failed = ref 0 in
  let round k ~measured =
    let tr = traced && k mod 2 = 1 in
    let meter = Calib.meter () in
    Calib.tick meter;
    Span.enabled := tr;
    let order = shuffle rng np in
    let runs =
      Array.map
        (fun p ->
          let r = run_program ~opts:cfg.opts ~req:((k * np) + p) progs.(p) natives.(p) in
          (* each run starts from a collected heap, as a fresh process would *)
          Gc.full_major ();
          Calib.tick meter;
          (p, r))
        order
    in
    Span.enabled := false;
    let y = Calib.mean meter in
    let f = Calib.factor y in
    let scaled ns = float_of_int ns *. f in
    let tot = Array.fold_left (fun a (_, r) -> a + host_ns r) 0 runs in
    if measured then begin
      yard := y :: !yard;
      Array.iter
        (fun (p, r) ->
          incr attempted;
          if not r.ok then incr failed;
          host.(p) <- scaled (host_ns r) :: host.(p);
          cyc.(p) <- r.cycles :: cyc.(p);
          lat_ms := (scaled (host_ns r) /. 1e6) :: !lat_ms;
          if not tr then
            per_run := (r.create_ns, r.machine_ns, r.asm_ns, r.load_ns, r.run_ns) :: !per_run)
        runs;
      let setup = Array.fold_left (fun a (_, r) -> a + setup_ns r) 0 runs in
      round_lat := Array.to_list (Array.map (fun (_, r) -> scaled (host_ns r) /. 1e6) runs) :: !round_lat;
      rounds := (scaled tot, scaled setup, tr) :: !rounds
    end
    else first_round_ns := tot;
    round_stats :=
      Some
        ( Array.fold_left (fun a (_, r) -> Rio.Stats.merge a r.stats) (Rio.Stats.create ()) runs,
          Array.fold_left (fun a (_, r) -> a + r.cycles) 0 runs )
  in
  (* one untimed warm-up round (first touches, lazy tables) *)
  round 0 ~measured:false;
  let t_start = Span.now_ns () in
  let k = ref 1 in
  while
    !k <= cfg.max_rounds
    && (!k <= cfg.min_rounds || secs_of_ns (Span.now_ns () - t_start) < seconds)
  do
    round !k ~measured:true;
    incr k
  done;
  let consistent = Array.for_all (fun l -> List.for_all (( = ) (List.hd l)) l) cyc in
  let sim_ratio =
    geomean
      (List.init np (fun p ->
           float_of_int (List.hd cyc.(p)) /. float_of_int natives.(p).n_cycles))
  in
  let untraced = List.filter (fun (_, _, t) -> not t) !rounds in
  let mips =
    geomean
      (List.init np (fun p ->
           median (List.map (fun ns -> float_of_int natives.(p).n_insns /. (ns /. 1e3)) host.(p))))
  in
  let e2e =
    [ ("setup_s", median (List.map (fun (_, s, _) -> s /. 1e9) untraced));
      ("mips", mips);
      ("rps", median (List.map (fun (t, _, _) -> float_of_int np /. (t /. 1e9)) untraced));
      ("p50_ms", quantile !lat_ms 0.50); ("p99_ms", tail_p99 !round_lat);
      ("sim_ratio", sim_ratio); ("rss_mb", peak_rss_self ()) ]
  in
  let layer =
    if not traced then []
    else begin
      let s, cycles = Option.get !round_stats in
      let med f = median (List.map (fun x -> us_of_ns (f x)) !per_run) in
      let run_ns = fsum (List.map (fun (_, _, _, _, r) -> float_of_int r) !per_run) in
      let insns_run =
        float_of_int (List.length !per_run)
        *. float_of_int (Array.fold_left (fun a n -> a + n.n_insns) 0 natives)
        /. float_of_int np
      in
      (* the interpreter alone, warm: three more native runs each *)
      let interp =
        let reps = Array.map (fun w -> List.init 3 (fun _ -> native_ref w)) progs in
        fsum
          (Array.to_list
             (Array.map (fun l -> median (List.map (fun n -> float_of_int n.interp_ns) l)) reps))
        /. float_of_int (Array.fold_left (fun a n -> a + n.n_insns) 0 natives)
      in
      let round_ns want =
        median (List.filter_map (fun (t, _, tr) -> if tr = want then Some t else None) !rounds)
      in
      (* the round's runs as requests: through the codec, all at once
         through a two-domain pool, and one each on a kept engine whose
         cache is then saved and reloaded *)
      let reqs =
        Array.mapi
          (fun p (w : Workload.t) ->
            { Loadgen.key = w.Workload.name; seed = 0; input = w.Workload.input;
              expect = natives.(p).out; insns = natives.(p).n_insns;
              cycles = natives.(p).n_cycles })
          progs
      in
      Span.enabled := true;
      let _, kept =
        instance_probe ~opts:cfg.opts (List.combine cfg.programs (Array.to_list reqs))
      in
      let persist = persist_roundtrip ~dir ~opts:cfg.opts kept in
      let replays = layer_replays cfg.programs in
      let boots =
        List.sort_uniq
          (fun (a, _) (b, _) -> compare a b)
          (List.map (boot_of ~opts:cfg.opts) cfg.programs)
      in
      let rp = pool_replay ~boots ~warm:[] ~offsets:(Array.make np 0) ~reqs in
      Span.enabled := false;
      replayed := List.length rp.rp_results;
      replay_failed := rp.rp_failed;
      let run_per_insn = run_ns /. insns_run in
      engine_counts ~ops:np ~cycles s
      @ [ ("blockbuild.blocks_first_pass", float_of_int s.Rio.Stats.blocks_built /. float_of_int np);
          ("vm.interp_ns_per_insn", interp);
          ("engine.run_ns_per_insn", run_per_insn);
          ("engine.overhead_ns_per_insn", run_per_insn -. interp);
          ("engine.create_us", med (fun (c, _, _, _, _) -> c));
          ("vm.machine_create_us", med (fun (_, m, _, _, _) -> m));
          ("asm.assemble_us", med (fun (_, _, a, _, _) -> a));
          ("asm.image_load_us", med (fun (_, _, _, l, _) -> l));
          ("first_s", secs_of_ns !first_round_ns);
          ("trace_overhead_frac", (round_ns true /. round_ns false) -. 1.0) ]
      @ pool_layer rp
      @ wire_replay (Array.to_list reqs)
      @ persist @ replays
    end
  in
  { e2e; layer; attempted = !attempted + !replayed; failed = !failed + !replay_failed;
    consistent; yardstick_ns = median !yard }

(** Parallel serving sweep: domain-count scaling of the pool
    (DESIGN.md §6.5), written to BENCH_parallel.json.

    For each domain count on the ladder, a pre-warmed pool (every
    (worker, workload) instance built at boot, so no request ever pays
    a cold boot) serves an interleaved (workload x input-seed) request
    stream twice: an untimed warm-up pass that populates every
    worker's code caches, then a measured pass.  Every result — warm-up and measured, with and without fault
    injection — is checked byte-for-byte against a native reference.

    Scaling is gated on {e simulated-cycle makespan}: the longest
    per-worker sum of served cycles.  Host wall-clock is reported but
    informational — CI machines may expose a single core, where real
    parallel speedup is physically impossible, while makespan measures
    exactly what the pool's one run queue controls: how evenly the
    stream spreads over d workers.

    A second gate measures what warm reuse buys: the simulated cycles
    of the one-domain measured pass on warm instances against the same
    requests served with a fresh machine + runtime each.  At one domain
    both sums are deterministic, so the gate is too; the host seconds
    of both passes are reported but not gated, because two ~0.1 s wall
    times made a ratio that failed on healthy code. *)

open Workloads

let pr fmt = Printf.printf fmt

let mix_names ~quick =
  if quick then [ "gzip"; "parser" ] else [ "gzip"; "parser"; "perlbmk"; "gcc" ]

let ladder ~quick = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]
let requests_for ~quick d = if quick then max 8 (4 * d) else max 16 (6 * d)

type pass_row = {
  pw_domains : int;
  pw_requests : int;
  pw_total_sim : int;       (* sum of per-request simulated cycles *)
  pw_makespan_sim : int;    (* max per-worker simulated busy cycles *)
  pw_eff_par : float;       (* total / makespan: effective parallelism *)
  pw_host_s : float;
  pw_warm_hits : int;
  pw_cold_boots : int;
}

let run { Sweep.quick; _ } =
  let wls =
    List.map
      (fun n -> Workload.serving_variant (Option.get (Suite.by_name n)))
      (mix_names ~quick)
  in
  pr "\n=== Parallel serving sweep (%s mode; mix: %s) ===\n"
    (if quick then "quick" else "full")
    (String.concat "," (mix_names ~quick));

  (* request maker (with native-reference cache), boots, and result
     checking come from the shared pool scaffolding in Sweep *)
  let make_requests = Sweep.request_maker wls in
  let boots ~opts = Sweep.pool_boots ~opts wls in
  let default_opts = { Rio.Options.default with max_cycles = max_int / 2 } in

  (* ---------------- scaling ladder ---------------- *)
  pr "%8s %9s %14s %14s %8s %8s %6s\n" "domains" "requests" "total-Mcyc"
    "makespan-Mcyc" "eff-par" "host-s" "warm";
  let warm_1domain_secs = ref 0.0 in
  let warm_1domain_cycles = ref 0 in
  let warmup_cold = ref 0 in
  let measured_1domain = ref [] in
  let rows =
    List.map
      (fun d ->
        let n = requests_for ~quick d in
        let pool =
          Rio.Pool.create
            ~cfg:{ Rio.Options.default_pool with domains = d; prewarm = true }
            ~boots:(boots ~opts:default_opts) ()
        in
        (* untimed warm-up: same size, distinct seeds — the text is
           identical across seeds, so caches warm fully *)
        List.iter (Sweep.submit_exn pool) (make_requests ~seed_base:10_000 n);
        Sweep.check_pass (Printf.sprintf "warmup d=%d" d) (Rio.Pool.drain pool);
        warmup_cold :=
          !warmup_cold + (Rio.Pool.stats pool).Rio.Pool.snap_cold_boots;
        Rio.Pool.reset_counters pool;
        let reqs = make_requests ~seed_base:0 n in
        let t0 = Sweep.time_now () in
        List.iter (Sweep.submit_exn pool) reqs;
        let results = Rio.Pool.drain pool in
        let host_s = Sweep.time_now () -. t0 in
        Sweep.check_pass (Printf.sprintf "measured d=%d" d) results;
        let snap = Rio.Pool.stats pool in
        Rio.Pool.shutdown pool;
        let total =
          List.fold_left (fun a r -> a + r.Rio.Pool.res_cycles) 0 results
        in
        let makespan =
          Array.fold_left max 0 snap.Rio.Pool.snap_busy_cycles
        in
        let eff = float_of_int total /. float_of_int (max 1 makespan) in
        if d = 1 then begin
          warm_1domain_secs := host_s;
          warm_1domain_cycles := total;
          measured_1domain := reqs
        end;
        pr "%8d %9d %14.2f %14.2f %8.2f %8.3f %6d\n%!" d n
          (float_of_int total /. 1e6)
          (float_of_int makespan /. 1e6)
          eff host_s snap.Rio.Pool.snap_warm_hits;
        {
          pw_domains = d;
          pw_requests = n;
          pw_total_sim = total;
          pw_makespan_sim = makespan;
          pw_eff_par = eff;
          pw_host_s = host_s;
          pw_warm_hits = snap.Rio.Pool.snap_warm_hits;
          pw_cold_boots = snap.Rio.Pool.snap_cold_boots;
        })
      (ladder ~quick)
  in

  (* ---------------- warm reuse vs fresh-per-request ---------------- *)
  (* serve the one-domain measured request list again, this time with a
     fresh machine + runtime per request (no cache carry-over) *)
  let boots1 = boots ~opts:default_opts in
  let fresh_cycles = ref 0 in
  let t0 = Sweep.time_now () in
  List.iter
    (fun (r : Rio.Pool.request) ->
      let boot = List.assoc r.Rio.Pool.req_key boots1 in
      let m = boot.Rio.Pool.boot_machine () in
      let rt = Rio.create ~opts:boot.Rio.Pool.boot_opts m in
      ignore
        (Vm.Machine.add_thread m ~entry:boot.Rio.Pool.boot_entry
           ~stack_top:boot.Rio.Pool.boot_stack_top);
      Vm.Machine.set_input m r.Rio.Pool.req_input;
      let o = Rio.run rt in
      fresh_cycles := !fresh_cycles + o.Rio.cycles;
      let out = Vm.Machine.output m in
      if
        not
          (Sweep.tally
             (o.Rio.reason = Rio.All_exited && Some out = r.Rio.Pool.req_expect))
      then
        pr "!! fresh-per-request: %s seed %d diverged\n%!" r.Rio.Pool.req_key
          r.Rio.Pool.req_seed)
    !measured_1domain;
  let fresh_secs = Sweep.time_now () -. t0 in
  let warm_speedup = fresh_secs /. !warm_1domain_secs in
  let cycle_ratio =
    float_of_int !fresh_cycles /. float_of_int (max 1 !warm_1domain_cycles)
  in
  pr
    "warm reuse at 1 domain: %d warm vs %d fresh-per-request simulated cycles \
     (%.3fx); host %.3fs vs %.3fs (%.2fx)\n%!"
    !warm_1domain_cycles !fresh_cycles cycle_ratio !warm_1domain_secs fresh_secs
    warm_speedup;

  (* ---------------- fault-injection correctness pass ---------------- *)
  let fd = 2 in
  let fn = requests_for ~quick fd in
  let fault_opts =
    {
      Rio.Options.default with
      max_cycles = max_int / 2;
      faults = Some { Rio.Options.default_faults with fi_seed = 7 };
      audit_period = 1;
    }
  in
  let fpool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = fd }
      ~boots:(boots ~opts:fault_opts) ()
  in
  List.iter (Sweep.submit_exn fpool) (make_requests ~seed_base:20_000 fn);
  Sweep.check_pass "faults warmup" (Rio.Pool.drain fpool);
  List.iter (Sweep.submit_exn fpool) (make_requests ~seed_base:0 fn);
  let fresults = Rio.Pool.drain fpool in
  Sweep.check_pass "faults" fresults;
  let fsnap = Rio.Pool.stats fpool in
  Rio.Pool.shutdown fpool;
  let injected = fsnap.Rio.Pool.snap_stats.Rio.Stats.faults_injected in
  pr
    "faults pass: %d requests on %d domains, %d faults injected, %d warm hits, \
     outputs %s\n%!"
    (2 * fn) fd injected fsnap.Rio.Pool.snap_warm_hits
    (if !Sweep.diverged = 0 then "all identical to native" else "DIVERGED");

  (* ---------------- JSON + gates ---------------- *)
  let eff4 =
    List.find_opt (fun r -> r.pw_domains = 4) rows
    |> Option.map (fun r -> r.pw_eff_par)
  in
  let open Rio.Json in
  ( [ ("mix", Arr (List.map (fun n -> Str n) (mix_names ~quick)));
      ("divergences", Int !Sweep.diverged);
      ( "scaling",
        Arr
          (List.map
             (fun r ->
               Obj
                 [ ("domains", Int r.pw_domains);
                   ("requests", Int r.pw_requests);
                   ("total_sim_cycles", Int r.pw_total_sim);
                   ("makespan_sim_cycles", Int r.pw_makespan_sim);
                   ("effective_parallelism", Float r.pw_eff_par);
                   ("host_seconds", Float r.pw_host_s);
                   ("warm_hits", Int r.pw_warm_hits);
                   ("cold_boots", Int r.pw_cold_boots) ])
             rows) );
      ( "warm_reuse",
        Obj
          [ ("warm_sim_cycles", Int !warm_1domain_cycles);
            ("fresh_sim_cycles", Int !fresh_cycles);
            ("sim_cycle_ratio", Float cycle_ratio);
            ("warm_seconds", Float !warm_1domain_secs);
            ("fresh_seconds", Float fresh_secs);
            ("speedup", Float warm_speedup) ] );
      ( "faults",
        Obj
          [ ("domains", Int fd);
            ("requests", Int (2 * fn));
            ("faults_injected", Int injected);
            ( "faults_detected",
              Int fsnap.Rio.Pool.snap_stats.Rio.Stats.faults_detected ) ] );
    ]
    @ Option.to_list
        (Option.map (fun e -> ("effective_parallelism_at_4", Float e)) eff4),
    (* pre-warming builds every (worker, key) instance at boot, so no
       request — at any domain count — may ever pay a cold boot.  Warm
       reuse must save at least ~10% less than it measured (quick 1.306,
       full 1.913 at one domain); a pool that served every request cold
       reads 1.0.  Scaling is gated in full mode only (quick mode runs
       a 2-domain smoke). *)
    [
      Sweep.at_most "cold boots in pre-warmed warm-up passes" ~bound:0.0
        (float_of_int !warmup_cold);
      Sweep.at_most "cold boots in pre-warmed measured passes" ~bound:0.0
        (float_of_int
           (List.fold_left (fun a r -> a + r.pw_cold_boots) 0 rows));
      Sweep.at_least "warm-reuse simulated-cycle ratio at 1 domain"
        ~bound:(if quick then 1.15 else 1.7)
        cycle_ratio;
    ]
    @
    if quick then []
    else
      Option.to_list
        (Option.map
           (Sweep.at_least "effective parallelism at 4 domains" ~bound:3.0)
           eff4) )

(** Chaos sweep: the fault-tolerance gate for the serving pool
    (DESIGN.md §6.6), written to BENCH_chaos.json.

    Serves the full 20-workload suite through pools armed with
    pool-scope chaos injection — crashes mid-request, stalled workers,
    poisoned warm instances, hook storms — across a grid of chaos
    seeds x retry policies, and requires that the pool's one recovery
    path (exception barrier, deadlines, retry ladder, quarantine)
    absorbs all of it:

    - {b zero hangs}: the whole sweep runs under a [Unix.alarm]
      backstop; a stuck drain kills the process with a distinct status;
    - {b zero lost requests}: every accepted request produces exactly
      one result, including requests that crashed mid-service;
    - {b output-identical}: every completed request's output matches
      its native reference — the retry ladder must convert every
      injected failure into an eventually-clean run;
    - {b recovery exercised}: across the grid, requests actually
      crashed, deadlines actually fired, and the retry ladder actually
      climbed (all counters in the JSON);
    - {b quarantine lifecycle}: a chaos-free scenario drives one
      workload key through breaker-open (consecutive final failures),
      probe admission, rejection while the probe is pending, and
      breaker-close on probe success.

    A stalled worker is caught by the per-request wall-clock deadline;
    a poisoned warm instance either diverges, faults, or loops (the
    deadline catches the loop), and the warm-retry rung heals it
    because the poison write marks its page touched, so
    {!Engine.reset_for_reuse} zeroes and restores it. *)

open Workloads

let pr fmt = Printf.printf fmt

let seeds ~quick = if quick then [ 1 ] else [ 1; 2 ]
let policies ~quick = if quick then [ 3 ] else [ 1; 3 ]
let requests_per_workload ~quick = if quick then 1 else 2

type combo_row = {
  cr_seed : int;
  cr_retries : int;
  cr_requests : int;
  cr_completed : int;
  cr_lost : int;
  cr_bad : int;
  cr_crashes : int;
  cr_deadline_hits : int;
  cr_retries_done : int;
  cr_warm_hits : int;
  cr_cold_boots : int;
  cr_max_attempts : int;
  cr_host_s : float;
}

let run { Sweep.quick; _ } =
  let wls = List.map Workload.serving_variant Suite.all in
  pr "\n=== Chaos sweep (%s mode; %d workloads) ===\n"
    (if quick then "quick" else "full")
    (List.length wls);
  let make_requests = Sweep.request_maker wls in
  (* a client with a real basic-block hook, so hook storms have a hook
     to storm: the guard barrier absorbs the injected raise and
     quarantines the client without touching application output *)
  let client () =
    { Rio.Types.null_client with
      name = "chaos-observer";
      basic_block = Some (fun _ ~tag:_ _ -> ());
    }
  in
  let opts = { Rio.Options.default with max_cycles = max_int / 2 } in
  let boots = Workload.pool_boots ~client ~opts:(fun _ -> opts) wls in
  let n = requests_per_workload ~quick * List.length wls in
  let lost_total = ref 0 in

  (* ---------------- chaos grid ---------------- *)
  pr "%6s %8s %9s %6s %5s %8s %9s %8s %9s\n" "seed" "retries" "requests"
    "lost" "bad" "crashes" "deadlines" "retried" "host-s";
  let rows =
    List.concat_map
      (fun seed ->
        List.map
          (fun retries ->
            let cfg =
              {
                Rio.Options.default_pool with
                domains = 2;
                retries;
                quarantine_threshold = 3;
                (* wall-clock deadline: catches stalled workers and
                   poison-induced infinite loops; generous enough that
                   no legitimate request trips it *)
                deadline_secs = Some 2.0;
              }
            in
            let chaos =
              { Rio.Faultinject.default_chaos with ch_seed = seed; ch_period = 3 }
            in
            let pool = Rio.Pool.create ~cfg ~chaos ~boots () in
            let t0 = Sweep.time_now () in
            let reqs = make_requests ~seed_base:0 n in
            List.iter (Sweep.submit_exn pool) reqs;
            let all = Rio.Pool.drain pool in
            let host_s = Sweep.time_now () -. t0 in
            let submitted = List.length reqs in
            (* count via completion: submit_exn means all were accepted *)
            let lost = submitted - List.length all in
            let bad = List.filter (fun r -> not r.Rio.Pool.res_ok) all in
            Sweep.check_pass
              (Printf.sprintf "chaos seed=%d retries=%d" seed retries)
              all;
            lost_total := !lost_total + lost;
            if lost > 0 then
              pr "!! chaos seed=%d retries=%d: %d accepted request(s) lost\n%!"
                seed retries lost;
            let snap = Rio.Pool.stats pool in
            Rio.Pool.shutdown pool;
            let max_attempts =
              List.fold_left (fun a r -> max a r.Rio.Pool.res_attempts) 0 all
            in
            let row =
              {
                cr_seed = seed;
                cr_retries = retries;
                cr_requests = submitted;
                cr_completed = List.length all;
                cr_lost = lost;
                cr_bad = List.length bad;
                cr_crashes = snap.Rio.Pool.snap_crashes;
                cr_deadline_hits = snap.Rio.Pool.snap_deadline_hits;
                cr_retries_done = snap.Rio.Pool.snap_retries;
                cr_warm_hits = snap.Rio.Pool.snap_warm_hits;
                cr_cold_boots = snap.Rio.Pool.snap_cold_boots;
                cr_max_attempts = max_attempts;
                cr_host_s = host_s;
              }
            in
            pr "%6d %8d %9d %6d %5d %8d %9d %8d %9.3f\n%!" seed retries
              submitted lost (List.length bad) row.cr_crashes
              row.cr_deadline_hits row.cr_retries_done host_s;
            row)
          (policies ~quick))
      (seeds ~quick)
  in

  (* ---------------- quarantine lifecycle (chaos-free) ---------------- *)
  (* drive one key's circuit breaker through its whole life: open after
     consecutive final failures (forced via a wrong expectation), reject
     while a probe is pending, close on probe success *)
  let qkey = (List.hd wls).Workload.name in
  let filler_key =
    (List.nth wls (1 mod List.length wls)).Workload.name
  in
  let qcfg =
    {
      Rio.Options.default_pool with
      domains = 1;
      retries = 0;
      quarantine_threshold = 2;
    }
  in
  let qpool = Rio.Pool.create ~cfg:qcfg ~boots () in
  let good_reqs = make_requests ~seed_base:0 (List.length wls) in
  let good_for key =
    List.find (fun r -> r.Rio.Pool.req_key = key) good_reqs
  in
  let bad_req i =
    { (good_for qkey) with Rio.Pool.req_seed = 900 + i; req_expect = Some [ max_int ] }
  in
  (* two wrong-expectation requests: final failures, breaker opens *)
  List.iter (Sweep.submit_exn qpool) [ bad_req 0; bad_req 1 ];
  ignore (Rio.Pool.drain qpool);
  (* queue filler work so the probe sits behind it, then observe the
     probe admission and the rejection window *)
  List.iter
    (fun _ -> Sweep.submit_exn qpool (good_for filler_key))
    [ 1; 2; 3; 4; 5 ];
  let probe_admitted =
    match Rio.Pool.submit qpool (good_for qkey) with
    | Ok () -> true
    | Error _ -> false
  in
  let rejected_while_probing =
    match Rio.Pool.submit qpool (good_for qkey) with
    | Error (Rio.Pool.Quarantined _) -> true
    | Ok () | Error _ -> false
  in
  let qresults = Rio.Pool.drain qpool in
  let qsnap = Rio.Pool.stats qpool in
  (* breaker must be closed again: a fresh submit is accepted and serves *)
  let after_close_ok =
    match Rio.Pool.submit qpool (good_for qkey) with
    | Ok () -> (
        match Rio.Pool.drain qpool with
        | [ r ] -> r.Rio.Pool.res_ok
        | _ -> false)
    | Error _ -> false
  in
  Rio.Pool.shutdown qpool;
  let quarantine_ok =
    probe_admitted && after_close_ok
    && qsnap.Rio.Pool.snap_quarantine_opens >= 1
    && qsnap.Rio.Pool.snap_quarantine_closes >= 1
    && qsnap.Rio.Pool.snap_probes >= 1
    && List.for_all
         (fun r -> r.Rio.Pool.res_key <> qkey || r.Rio.Pool.res_ok)
         qresults
  in
  pr
    "quarantine: opens %d  probes %d  rejected-while-probing %b  closes %d  \
     post-close serve %s\n%!"
    qsnap.Rio.Pool.snap_quarantine_opens qsnap.Rio.Pool.snap_probes
    rejected_while_probing qsnap.Rio.Pool.snap_quarantine_closes
    (if after_close_ok then "ok" else "FAILED");

  (* ---------------- totals, JSON, gates ---------------- *)
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  let crashes = total (fun r -> r.cr_crashes) in
  let deadline_hits = total (fun r -> r.cr_deadline_hits) in
  let retried = total (fun r -> r.cr_retries_done) in
  pr
    "totals: %d crashes  %d deadline hits  %d retries  %d lost  %d \
     divergences\n%!"
    crashes deadline_hits retried !lost_total !Sweep.diverged;

  let open Rio.Json in
  ( [
      ("workloads", Int (List.length wls));
      ("combos", Int (List.length rows));
      ("lost", Int !lost_total);
      ("divergences", Int !Sweep.diverged);
      ("crashes", Int crashes);
      ("deadline_hits", Int deadline_hits);
      ("retries", Int retried);
      ( "quarantine",
        Obj
          [
            ("opens", Int qsnap.Rio.Pool.snap_quarantine_opens);
            ("closes", Int qsnap.Rio.Pool.snap_quarantine_closes);
            ("probes", Int qsnap.Rio.Pool.snap_probes);
            ( "rejected",
              Int qsnap.Rio.Pool.snap_rejected_quarantined );
            ("rejected_while_probing", Bool rejected_while_probing);
            ("lifecycle_ok", Bool quarantine_ok);
          ] );
      ( "grid",
        Arr
          (List.map
             (fun r ->
               Obj
                 [
                   ("chaos_seed", Int r.cr_seed);
                   ("retries", Int r.cr_retries);
                   ("requests", Int r.cr_requests);
                   ("completed", Int r.cr_completed);
                   ("lost", Int r.cr_lost);
                   ("bad", Int r.cr_bad);
                   ("crashes", Int r.cr_crashes);
                   ("deadline_hits", Int r.cr_deadline_hits);
                   ("retries_done", Int r.cr_retries_done);
                   ("warm_hits", Int r.cr_warm_hits);
                   ("cold_boots", Int r.cr_cold_boots);
                   ("max_attempts", Int r.cr_max_attempts);
                   ("host_seconds", Float r.cr_host_s);
                 ])
             rows) );
    ],
    (* the chaos machinery must actually have been exercised: with
       ch_period 3 over the whole grid, zero crashes means the injector
       (or the barrier's accounting) is broken *)
    [
      Sweep.at_most "accepted requests lost" ~bound:0.0 (float_of_int !lost_total);
      Sweep.holds "quarantine lifecycle complete" quarantine_ok;
      Sweep.at_least "chaos crashes healed" ~bound:1.0 (float_of_int crashes);
    ] )

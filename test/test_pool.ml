(** Warm-reuse and domain-parallel serving tests (DESIGN.md §6.5).

    The load-bearing property: serving a request on a {e warm} reused
    instance — code cache, fragment index, and traces carried over from
    arbitrary earlier requests — is observationally identical to
    serving it on a fresh instance: same output, same stop reason, same
    final registers, flags, pc, and application memory.  Simulated
    cycle counts are allowed to differ (that is the point of reuse:
    warm requests skip block building). *)

open Workloads

let serving_names = [ "perlbmk"; "gzip"; "parser"; "gcc" ]

let serving =
  List.map
    (fun n -> Workload.serving_variant (Option.get (Suite.by_name n)))
    serving_names

type site = {
  image : Asm.Image.t;
  workload : Workload.t;
}

let sites =
  List.map
    (fun w -> (w.Workload.name, { image = Asm.Assemble.assemble w.Workload.program; workload = w }))
    serving

let fresh_machine (s : site) =
  let m = Vm.Machine.create () in
  Asm.Image.load_cold m s.image;
  m

let input_for (s : site) seed =
  Workload.request_input ~seed @ s.workload.Workload.input

(* Serve one request on [rt] (already reset or freshly created): add
   the main thread, feed the input, run. *)
let serve_on (rt : Rio.Engine.t) (s : site) seed =
  let m = Rio.Engine.machine rt in
  ignore
    (Vm.Machine.add_thread m ~entry:s.image.Asm.Image.entry
       ~stack_top:Asm.Image.default_stack_top);
  Vm.Machine.set_input m (input_for s seed);
  Rio.Engine.run rt

(* One warm server: a table of long-lived instances keyed by workload,
   exactly as a pool worker keeps them. *)
let warm_server ~opts () =
  let tbl : (string, Rio.Engine.t) Hashtbl.t = Hashtbl.create 8 in
  fun (name, seed) ->
    let s = List.assoc name sites in
    let rt =
      match Hashtbl.find_opt tbl name with
      | Some rt ->
          Rio.Engine.reset_for_reuse rt ~restore:(fun m ~zeroed ->
              Asm.Image.restore m s.image ~zeroed);
          rt
      | None ->
          let rt = Rio.Engine.create ~opts (fresh_machine s) in
          Hashtbl.replace tbl name rt;
          rt
    in
    (serve_on rt s seed, rt)

let fresh_serve ~opts (name, seed) =
  let s = List.assoc name sites in
  let rt = Rio.Engine.create ~opts (fresh_machine s) in
  (serve_on rt s seed, rt)

(* Final observable state: output, stop reason, main-thread register
   file, and all application memory below the TLS area. *)
let state_equal (o1 : Rio.Engine.outcome) rt1 (o2 : Rio.Engine.outcome) rt2 =
  let m1 = Rio.Engine.machine rt1 and m2 = Rio.Engine.machine rt2 in
  let t1 = Vm.Machine.For_testing.main_thread m1 and t2 = Vm.Machine.For_testing.main_thread m2 in
  let problems = ref [] in
  let check name b = if not b then problems := name :: !problems in
  check "output" (Vm.Machine.output m1 = Vm.Machine.output m2);
  check "reason" (o1.Rio.Engine.reason = o2.Rio.Engine.reason);
  check "regs" (t1.Vm.Machine.regs = t2.Vm.Machine.regs);
  check "fregs" (t1.Vm.Machine.fregs = t2.Vm.Machine.fregs);
  check "eflags" (t1.Vm.Machine.eflags = t2.Vm.Machine.eflags);
  (* a thread that halts while executing inside the code cache leaves
     pc at the halt's cache address, which legitimately depends on
     cache layout (fresh RIO vs native differ the same way); pc is an
     observable only while it points at application code *)
  check "pc"
    (if
       Rio.Types.is_app_addr t1.Vm.Machine.pc
       && Rio.Types.is_app_addr t2.Vm.Machine.pc
     then t1.Vm.Machine.pc = t2.Vm.Machine.pc
     else true);
  check "app memory"
    (Vm.Memory.For_testing.equal_range
       (Vm.Machine.mem m1) (Vm.Machine.mem m2)
       ~addr:0 ~len:Rio.Types.tls_base);
  !problems

let default_opts = { Rio.Options.default with max_cycles = max_int / 2 }

let pressure_opts =
  {
    default_opts with
    Rio.Options.cache_capacity =
      Some (2 * Rio.Options.min_cache_capacity Rio.Options.default);
    flush_policy = Rio.Options.Flush_fifo;
  }

(* ------------------------------------------------------------------ *)
(* qcheck: warm reused instance == fresh instance per request          *)
(* ------------------------------------------------------------------ *)

let gen_sequence =
  QCheck.(
    list_of_size (Gen.int_range 3 6)
      (pair (int_range 0 (List.length serving_names - 1)) (int_range 0 1000)))

let warm_equals_fresh ~name ~opts =
  QCheck.Test.make ~count:8 ~name gen_sequence (fun seq ->
      let seq =
        List.map (fun (k, seed) -> (List.nth serving_names k, seed)) seq
      in
      let warm = warm_server ~opts () in
      List.for_all
        (fun req ->
          let ow, rtw = warm req in
          let of_, rtf = fresh_serve ~opts req in
          match state_equal ow rtw of_ rtf with
          | [] -> true
          | ps ->
              QCheck.Test.fail_reportf "%s seed %d: %s differ" (fst req)
                (snd req)
                (String.concat ", " ps))
        seq)

(* ------------------------------------------------------------------ *)
(* Two-domain smoke: concurrent independent instances                  *)
(* ------------------------------------------------------------------ *)

(* Two domains running full RIO instances at once: any domain-unsafe
   global mutable state in lib/rio or lib/vm shows up here as
   corruption or divergence. *)
let two_domain_smoke same_workload () =
  let pick i =
    if same_workload then List.hd serving
    else List.nth serving (i mod List.length serving)
  in
  let run_one i =
    let w = pick i in
    let s = List.assoc w.Workload.name sites in
    let results = ref [] in
    for seed = 10 * i to (10 * i) + 2 do
      let o, rt = fresh_serve ~opts:default_opts (w.Workload.name, seed) in
      let native =
        Workload.run_native (Workload.with_input w (input_for s seed))
      in
      results :=
        ( seed,
          o.Rio.Engine.reason = Rio.Engine.All_exited,
          Vm.Machine.output (Rio.Engine.machine rt) = native.Workload.output )
        :: !results
    done;
    !results
  in
  let d1 = Domain.spawn (fun () -> run_one 0) in
  let d2 = Domain.spawn (fun () -> run_one 1) in
  let check who rs =
    List.iter
      (fun (seed, exited, matches) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d exited" who seed)
          true exited;
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d matches native" who seed)
          true matches)
      rs
  in
  check "domain0" (Domain.join d1);
  check "domain1" (Domain.join d2)

(* ------------------------------------------------------------------ *)
(* Pool integration                                                    *)
(* ------------------------------------------------------------------ *)

let pool_boots ~opts =
  List.map
    (fun (name, s) ->
      ( name,
        {
          Rio.Pool.boot_machine = (fun () -> fresh_machine s);
          boot_entry = s.image.Asm.Image.entry;
          boot_stack_top = Asm.Image.default_stack_top;
          boot_restore =
            (fun m ~zeroed -> Asm.Image.restore m s.image ~zeroed);
          boot_opts = opts;
          boot_client = (fun () -> Rio.Types.null_client);
          boot_image_digest = Asm.Image.digest s.image;
          boot_cache = None;
        } ))
    sites

(* Request [i] for workload [name], checked against native. *)
let keyed_request name i =
  let s = List.assoc name sites in
  let seed = 100 + i in
  let native =
    Workload.run_native (Workload.with_input s.workload (input_for s seed))
  in
  {
    Rio.Pool.req_id = i;
    req_key = name;
    req_seed = seed;
    req_input = input_for s seed;
    req_expect = Some native.Workload.output;
  }

let pool_requests n =
  List.init n (fun i ->
      keyed_request (List.nth serving_names (i mod List.length serving_names)) i)

(* Every submit in these tests is expected to be accepted. *)
let submit_ok pool r =
  match Rio.Pool.submit pool r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit rejected: %s" (Rio.Pool.reject_to_string e)

let pool_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; max_inflight = 2 }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let n = 12 in
  List.iter (submit_ok pool) (pool_requests n);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Alcotest.(check int) "all completed" n (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d ok" r.Rio.Pool.res_key r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results;
  Alcotest.(check int) "warm + cold covers all"
    n
    (snap.Rio.Pool.snap_warm_hits + snap.Rio.Pool.snap_cold_boots);
  (* 12 requests over 4 workloads x 2 domains: at most 8 cold boots *)
  Alcotest.(check bool) "some requests served warm" true
    (snap.Rio.Pool.snap_warm_hits > 0);
  (* a second pass on the same pool.  Each domain keeps a warm
     instance per key it served, so a request lands warm exactly when
     its domain already holds the key.  Which worker claims a request
     from the shared queue is up to the schedule, so a request may land
     on a domain that never held its key: that domain boots cold once,
     and is warm for the key from then on. *)
  let held = Hashtbl.create 8 in
  List.iter
    (fun r -> Hashtbl.replace held (r.Rio.Pool.res_worker, r.Rio.Pool.res_key) ())
    results;
  Rio.Pool.reset_counters pool;
  List.iter (submit_ok pool) (pool_requests n);
  let results2 = Rio.Pool.drain pool in
  let snap2 = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "pass2 %s seed %d ok" r.Rio.Pool.res_key
           r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results2;
  Alcotest.(check int) "second pass: warm + cold covers all" n
    (snap2.Rio.Pool.snap_warm_hits + snap2.Rio.Pool.snap_cold_boots);
  Alcotest.(check int) "second pass: warm hits counted per result"
    (List.length (List.filter (fun r -> r.Rio.Pool.res_warm) results2))
    snap2.Rio.Pool.snap_warm_hits;
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let g = (r.Rio.Pool.res_worker, r.Rio.Pool.res_key) in
      Hashtbl.replace groups g
        (r :: Option.value (Hashtbl.find_opt groups g) ~default:[]))
    results2;
  Hashtbl.iter
    (fun ((worker, key) as g) rs ->
      let cold = List.filter (fun r -> not r.Rio.Pool.res_warm) rs in
      Alcotest.(check int)
        (Printf.sprintf "pass2 cold boots of %s on domain %d (held it %b)" key
           worker (Hashtbl.mem held g))
        (if Hashtbl.mem held g then 0 else 1)
        (List.length cold))
    groups;
  (* merged stats cover work from both domains *)
  Alcotest.(check bool) "merged stats saw blocks" true
    (snap2.Rio.Pool.snap_stats.Rio.Stats.blocks_built > 0)

(* The batcher lets a request for the key a worker served last jump
   the line, but it passes over the front request at most
   [batch_window] (8) times.  One worker is held inside a gzip request
   by a client whose init waits on a gate, while a parser request and
   then 20 gzip requests queue behind it.  Without the bound the gzip
   stream would be served first and the parser request last. *)
let batcher_bound_case () =
  let batch_window = 8 in
  let gate = Atomic.make false in
  let gated =
    {
      Rio.Types.null_client with
      init = (fun _ -> while not (Atomic.get gate) do Unix.sleepf 0.001 done);
    }
  in
  let boots =
    List.map
      (fun (name, (b : Rio.Pool.boot)) ->
        if name = "gzip" then (name, { b with boot_client = (fun () -> gated) })
        else (name, b))
      (pool_boots ~opts:default_opts)
  in
  let pool =
    Rio.Pool.create ~cfg:{ Rio.Options.default_pool with domains = 1 } ~boots ()
  in
  submit_ok pool (keyed_request "gzip" 0);
  submit_ok pool (keyed_request "parser" 1);
  List.iter (fun i -> submit_ok pool (keyed_request "gzip" i)) (List.init 20 (( + ) 2));
  Atomic.set gate true;
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "all completed" 22 (List.length results);
  List.iter
    (fun (r : Rio.Pool.result) ->
      Alcotest.(check bool) (Printf.sprintf "request %d ok" r.res_id) true r.res_ok)
    results;
  let served =
    List.mapi (fun k (r : Rio.Pool.result) -> (r.res_id, k + 1)) results
  in
  let parser_at = List.assoc 1 served in
  Alcotest.(check bool)
    (Printf.sprintf "parser request served at position %d, within the first %d" parser_at
       (batch_window + 2))
    true
    (parser_at <= batch_window + 2);
  Alcotest.(check bool) "batch hits counted" true (snap.Rio.Pool.snap_batch_hits > 0)

(* The free-list gauges are point-in-time readings of each cache, so
   the pool snapshot must read them off the drained instances rather
   than report whatever was last written into their stats. *)
let gauges_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 1 }
      ~boots:(pool_boots ~opts:pressure_opts) ()
  in
  List.iter (submit_ok pool) (pool_requests 4);
  ignore (Rio.Pool.drain pool);
  let s = (Rio.Pool.stats pool).Rio.Pool.snap_stats in
  Rio.Pool.shutdown pool;
  Alcotest.(check bool) "bounded FIFO caches report free bytes" true
    (s.Rio.Stats.freelist_free_bytes > 0);
  Alcotest.(check bool) "and their largest hole" true
    (s.Rio.Stats.freelist_largest_hole > 0)

(* The completion hook fires once per batch of pending results, not
   once per completion.  Completion is observed through the counters
   ({!Rio.Pool.stats}), which leave the pending results untouched. *)
let notify_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; prewarm = true }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let fired = Atomic.make 0 in
  Rio.Pool.set_notify pool (fun () -> Atomic.incr fired);
  let wait_completed k =
    while (Rio.Pool.stats pool).Rio.Pool.snap_completed < k do
      Unix.sleepf 0.002
    done
  in
  let n = 6 in
  List.iter (submit_ok pool) (pool_requests n);
  wait_completed n;
  Alcotest.(check int) "one wake for n untaken results" 1 (Atomic.get fired);
  Alcotest.(check int) "take collects them all" n
    (List.length (Rio.Pool.take_results pool));
  let one = List.hd (pool_requests 1) in
  submit_ok pool { one with Rio.Pool.req_id = n };
  wait_completed (n + 1);
  Alcotest.(check int) "a take re-arms the hook" 2 (Atomic.get fired);
  ignore (Rio.Pool.take_results pool);
  Rio.Pool.set_notify pool ignore;
  submit_ok pool { one with Rio.Pool.req_id = n + 1 };
  wait_completed (n + 2);
  Alcotest.(check int) "a detached hook stays silent" 2 (Atomic.get fired);
  ignore (Rio.Pool.drain pool);
  Rio.Pool.shutdown pool

let pool_faults_case () =
  let opts =
    {
      default_opts with
      Rio.Options.faults = Some { Rio.Options.default_faults with fi_seed = 3 };
      audit_period = 1;
    }
  in
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2 }
      ~boots:(pool_boots ~opts) ()
  in
  let n = 8 in
  List.iter (submit_ok pool) (pool_requests n);
  let results = Rio.Pool.drain pool in
  Rio.Pool.shutdown pool;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "faults %s seed %d ok" r.Rio.Pool.res_key
           r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results

(* ------------------------------------------------------------------ *)
(* Supervision, deadlines, retry ladder, quarantine (DESIGN.md §6.6)   *)
(* ------------------------------------------------------------------ *)

(* Submitting an unregistered key is an error result, not a raise that
   would kill the submitting caller or a worker domain; the pool keeps
   serving registered keys afterwards. *)
let unknown_key_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2 }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let bogus =
    { Rio.Pool.req_id = 0; req_key = "no-such-workload"; req_seed = 1;
      req_input = []; req_expect = None }
  in
  (match Rio.Pool.submit pool bogus with
   | Error (Rio.Pool.Unknown_key _) -> ()
   | Ok () -> Alcotest.fail "bogus key accepted"
   | Error e ->
       Alcotest.failf "wrong rejection: %s" (Rio.Pool.reject_to_string e));
  List.iter (submit_ok pool) (pool_requests 4);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "good requests still served" 4 (List.length results);
  List.iter
    (fun r -> Alcotest.(check bool) "still ok" true r.Rio.Pool.res_ok)
    results;
  Alcotest.(check int) "rejection counted" 1
    snap.Rio.Pool.snap_rejected_unknown

(* The dedicated worker-kill test: crash-only chaos at period 1 kills
   the serving domain mid-request on every chaos-eligible attempt.  The
   supervisor must respawn each dead domain and requeue the request it
   died holding; every accepted request still produces an ok result. *)
let worker_kill_respawn_case () =
  let chaos =
    {
      Rio.Faultinject.ch_seed = 11;
      ch_period = 1;
      ch_crash = true;
      ch_stall = false;
      ch_poison = false;
      ch_hook_storm = false;
    }
  in
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; retries = 1 }
      ~chaos
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let n = 6 in
  List.iter (submit_ok pool) (pool_requests n);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "no request lost" n (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d recovered" r.Rio.Pool.res_key
           r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results;
  Alcotest.(check bool) "supervisor respawned workers" true
    (snap.Rio.Pool.snap_respawns >= 1);
  Alcotest.(check bool) "killed requests requeued" true
    (snap.Rio.Pool.snap_requeues >= 1)

(* The exception barrier: a raise while serving (here, a boot whose
   machine factory throws) becomes a Crashed result, not a dead worker;
   the pool keeps serving other keys on the same domains. *)
let crash_barrier_case () =
  let broken =
    ( "broken",
      {
        Rio.Pool.boot_machine = (fun () -> failwith "boot exploded");
        boot_entry = 0;
        boot_stack_top = 0;
        boot_restore = (fun _ ~zeroed -> zeroed);
        boot_opts = default_opts;
        boot_client = (fun () -> Rio.Types.null_client);
        boot_image_digest = 0;
        boot_cache = None;
      } )
  in
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; retries = 0 }
      ~boots:(broken :: pool_boots ~opts:default_opts) ()
  in
  submit_ok pool
    { Rio.Pool.req_id = 0; req_key = "broken"; req_seed = 1; req_input = [];
      req_expect = None };
  List.iter (submit_ok pool) (pool_requests 4);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "all requests completed" 5 (List.length results);
  let crashed, rest =
    List.partition (fun r -> r.Rio.Pool.res_key = "broken") results
  in
  (match crashed with
   | [ r ] ->
       Alcotest.(check bool) "crashed result" true
         (match r.Rio.Pool.res_reason with
          | Rio.Engine.Crashed _ -> true
          | _ -> false);
       Alcotest.(check bool) "crashed not ok" false r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 broken result, got %d" (List.length rs));
  List.iter
    (fun r -> Alcotest.(check bool) "others still ok" true r.Rio.Pool.res_ok)
    rest;
  Alcotest.(check bool) "crash counted" true (snap.Rio.Pool.snap_crashes >= 1);
  Alcotest.(check int) "no respawn needed" 0 snap.Rio.Pool.snap_respawns

(* A cycle-budget deadline preempts a request at a safe point and
   reports Deadline_exceeded as the final reason once the ladder is
   exhausted. *)
let deadline_case () =
  let pool =
    Rio.Pool.create
      ~cfg:
        {
          Rio.Options.default_pool with
          domains = 1;
          retries = 0;
          deadline_cycles = Some 1_000;
        }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  List.iter (submit_ok pool) (pool_requests 1);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  (match results with
   | [ r ] ->
       Alcotest.(check bool) "preempted" true
         (r.Rio.Pool.res_reason = Rio.Engine.Deadline_exceeded);
       Alcotest.(check bool) "not ok" false r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs));
  Alcotest.(check bool) "deadline counted" true
    (snap.Rio.Pool.snap_deadline_hits >= 1)

(* Circuit breaker lifecycle, deterministically on one domain: two
   consecutive final failures (wrong expectation) open the key's
   breaker; the next submit is admitted as the probe; its success
   closes the breaker. *)
let quarantine_case () =
  let pool =
    Rio.Pool.create
      ~cfg:
        {
          Rio.Options.default_pool with
          domains = 1;
          retries = 0;
          quarantine_threshold = 2;
        }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let good = List.hd (pool_requests 1) in
  let bad i = { good with Rio.Pool.req_seed = 700 + i; req_expect = Some [ -1 ] } in
  List.iter (submit_ok pool) [ bad 0; bad 1 ];
  let failed = Rio.Pool.drain pool in
  Alcotest.(check int) "both failures completed" 2 (List.length failed);
  (* breaker now open: the next submit must be admitted as the probe *)
  submit_ok pool good;
  let probed = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  (* closed again: a further request is served normally *)
  submit_ok pool good;
  let after = Rio.Pool.drain pool in
  let snap2 = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  (match probed with
   | [ r ] -> Alcotest.(check bool) "probe succeeded" true r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 probe result, got %d" (List.length rs));
  Alcotest.(check int) "breaker opened once" 1
    snap.Rio.Pool.snap_quarantine_opens;
  Alcotest.(check int) "probe admitted" 1 snap.Rio.Pool.snap_probes;
  Alcotest.(check int) "breaker closed" 1 snap.Rio.Pool.snap_quarantine_closes;
  Alcotest.(check int) "no key open at the end" 0
    snap2.Rio.Pool.snap_quarantined_now;
  (match after with
   | [ r ] -> Alcotest.(check bool) "post-close serve ok" true r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs))

(* drain_and_reload: quiesce, drop warm instances, resume; requests
   accepted before and after the reload are all served. *)
let reload_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2 }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let n = 8 in
  List.iter (submit_ok pool) (pool_requests n);
  let before = Rio.Pool.drain pool in
  Rio.Pool.drain_and_reload pool;
  List.iter (submit_ok pool) (pool_requests n);
  let after = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "served before reload" n (List.length before);
  Alcotest.(check int) "served after reload" n (List.length after);
  List.iter
    (fun r -> Alcotest.(check bool) "ok across reload" true r.Rio.Pool.res_ok)
    (before @ after);
  Alcotest.(check int) "reload counted" 1 snap.Rio.Pool.snap_reloads

(* A fresh pool instance has one warm source: its key's saved image.
   Every instance the pool builds — pre-warmed at create, rebuilt on
   reload, cold-booted by retry rungs 2 and 3 — loads it, and a damaged
   image is refused by every one of them without changing an answer. *)
let image_boot_case () =
  let warm = warm_server ~opts:default_opts () in
  let image name f =
    let _, rt = warm (name, 1) in
    let s = List.assoc name sites in
    let path = Filename.temp_file ("rio_pool_" ^ name) ".riocache" in
    ignore
      (Rio.Engine.save_image rt ~image_digest:(Asm.Image.digest s.image) ~path);
    f path;
    path
  in
  let truncate path =
    let s = In_channel.with_open_bin path In_channel.input_all in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub s 0 (String.length s / 2)))
  in
  let keys = List.length sites in
  (* create and the reload each build one instance per (domain, key);
     the failing request's rungs 2 and 3 build one each *)
  let built = (2 * 2 * keys) + 2 in
  let reqs = pool_requests 8 in
  let bad = List.hd reqs in
  let run_fleet ~label paths =
    let boots =
      List.map
        (fun (name, b) ->
          (name, { b with Rio.Pool.boot_cache = Some (List.assoc name paths) }))
        (pool_boots ~opts:default_opts)
    in
    let pool =
      Rio.Pool.create
        ~cfg:{ Rio.Options.default_pool with domains = 2; prewarm = true }
        ~boots ()
    in
    List.iter (submit_ok pool) reqs;
    let before = Rio.Pool.drain pool in
    Rio.Pool.drain_and_reload ~rebuild:true pool;
    List.iter (submit_ok pool) reqs;
    let after = Rio.Pool.drain pool in
    submit_ok pool { bad with req_id = 99; req_expect = Some [ -1 ] };
    let wrong = Rio.Pool.drain pool in
    let snap = Rio.Pool.stats pool in
    Rio.Pool.shutdown pool;
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s seed %d matches native" label
             r.Rio.Pool.res_key r.Rio.Pool.res_seed)
          true r.Rio.Pool.res_ok)
      (before @ after);
    (match wrong with
    | [ r ] ->
        Alcotest.(check int) (label ^ ": wrong expectation climbs the ladder")
          4 r.Rio.Pool.res_attempts;
        Alcotest.(check bool) (label ^ ": wrong expectation fails") false
          r.Rio.Pool.res_ok;
        Alcotest.(check bool) (label ^ ": its output still matches native")
          true
          (Some r.Rio.Pool.res_output = bad.Rio.Pool.req_expect)
    | rs -> Alcotest.failf "%s: %d results for one request" label (List.length rs));
    Alcotest.(check int) (label ^ ": instances built eagerly")
      (built - 2) snap.Rio.Pool.snap_prewarm_boots;
    Alcotest.(check int) (label ^ ": all but the last attempt warm")
      (2 * List.length reqs) snap.Rio.Pool.snap_warm_hits;
    (snap, List.fold_left (fun n r -> n + r.Rio.Pool.res_blocks_built) 0 before)
  in
  let good = List.map (fun (name, _) -> (name, image name ignore)) sites in
  let bad_images = List.map (fun (name, _) -> (name, image name truncate)) sites in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (_, p) -> try Sys.remove p with Sys_error _ -> ())
        (good @ bad_images))
    (fun () ->
      let snap, warm_blocks = run_fleet ~label:"image" good in
      Alcotest.(check int) "every instance loaded the image" built
        snap.Rio.Pool.snap_cache_loads;
      Alcotest.(check int) "no load refused" 0 snap.Rio.Pool.snap_cache_refused;
      let snap, cold_blocks = run_fleet ~label:"truncated image" bad_images in
      Alcotest.(check int) "no truncated image loaded" 0
        snap.Rio.Pool.snap_cache_loads;
      Alcotest.(check int) "every load of a truncated image refused" built
        snap.Rio.Pool.snap_cache_refused;
      Alcotest.(check bool)
        (Printf.sprintf "loaded images spare block builds (%d < %d)"
           warm_blocks cold_blocks)
        true (warm_blocks < cold_blocks))

(* qcheck: a client hook that raises inside a pooled request (forced
   via hook-raise fault injection at period 1) never hangs drain and
   never loses a result, across warm and cold instances. *)
let hook_raise_never_hangs =
  let hook_opts =
    {
      default_opts with
      Rio.Options.faults =
        Some
          {
            Rio.Options.default_faults with
            fi_seed = 5;
            fi_period = 1;
            fi_corrupt = false;
            fi_links = false;
            fi_signals = false;
          };
      audit_period = 1;
    }
  in
  let hooked_boots =
    List.map
      (fun (name, b) ->
        ( name,
          {
            b with
            Rio.Pool.boot_client =
              (fun () ->
                { Rio.Types.null_client with
                  name = "raiser-target";
                  basic_block = Some (fun _ ~tag:_ _ -> ());
                });
          } ))
      (pool_boots ~opts:hook_opts)
  in
  QCheck.Test.make ~count:4 ~name:"hook raise never hangs or loses results"
    gen_sequence (fun seq ->
      let reqs =
        List.map
          (fun (k, seed) ->
            let name = List.nth serving_names (k mod List.length serving_names) in
            let s = List.assoc name sites in
            let seed = seed mod 50 in
            let native =
              Workload.run_native
                (Workload.with_input s.workload (input_for s seed))
            in
            {
              Rio.Pool.req_id = k;
              req_key = name;
              req_seed = seed;
              req_input = input_for s seed;
              req_expect = Some native.Workload.output;
            })
          seq
      in
      let pool =
        Rio.Pool.create
          ~cfg:{ Rio.Options.default_pool with domains = 2 }
          ~boots:hooked_boots ()
      in
      List.iter (submit_ok pool) reqs;
      (* warm pass over the same keys: hooks raise on reused instances too *)
      List.iter (submit_ok pool) reqs;
      let results = Rio.Pool.drain pool in
      Rio.Pool.shutdown pool;
      if List.length results <> 2 * List.length reqs then
        QCheck.Test.fail_reportf "lost results: %d of %d"
          (List.length results)
          (2 * List.length reqs)
      else
        List.for_all
          (fun r ->
            r.Rio.Pool.res_ok
            || QCheck.Test.fail_reportf "%s seed %d not ok (%s)"
                 r.Rio.Pool.res_key r.Rio.Pool.res_seed
                 (Rio.Engine.stop_reason_to_string r.Rio.Pool.res_reason))
          results)

(* ------------------------------------------------------------------ *)
(* qcheck: random interleavings of the pool's public operations        *)
(* ------------------------------------------------------------------ *)

type op =
  | Submit of int * int      (* key index, seed *)
  | Try_submit of int * int
  | Drain
  | Reload of bool           (* ~rebuild *)

let show_op = function
  | Submit (k, s) -> Printf.sprintf "submit %s/%d" (List.nth serving_names k) s
  | Try_submit (k, s) ->
      Printf.sprintf "try_submit %s/%d" (List.nth serving_names k) s
  | Drain -> "drain"
  | Reload b -> Printf.sprintf "reload ~rebuild:%b" b

(* [None] is a fault-free pool; [Some seed] arms crash-only chaos, so
   worker domains die mid-request wherever the seed's stream says. *)
let gen_interleaving =
  let open QCheck.Gen in
  let key = int_range 0 (List.length serving_names - 1) in
  let seed = int_range 0 7 in
  let op =
    frequency
      [
        (4, map2 (fun k s -> Submit (k, s)) key seed);
        (3, map2 (fun k s -> Try_submit (k, s)) key seed);
        (1, return Drain);
        (1, map (fun b -> Reload b) bool);
      ]
  in
  pair (opt (int_range 1 1000)) (list_size (int_range 3 8) op)

let arb_interleaving =
  QCheck.make gen_interleaving ~print:(fun (chaos, ops) ->
      Printf.sprintf "chaos %s: %s"
        (match chaos with None -> "off" | Some s -> string_of_int s)
        (String.concat "; " (List.map show_op ops)))

(* What the pool guarantees under any interleaving: every admitted
   request yields exactly one result; every result matches native; and
   the multiset of outputs equals serving the admitted requests one
   after another on a single warm server. *)
let interleavings_agree =
  let native_memo = Hashtbl.create 32 in
  let native name seed =
    match Hashtbl.find_opt native_memo (name, seed) with
    | Some out -> out
    | None ->
        let s = List.assoc name sites in
        let out =
          (Workload.run_native
             (Workload.with_input s.workload (input_for s seed)))
            .Workload.output
        in
        Hashtbl.replace native_memo (name, seed) out;
        out
  in
  QCheck.Test.make ~count:40 ~name:"interleaved ops agree with sequential service"
    arb_interleaving (fun (chaos, ops) ->
      let domains = 2 in
      let pool =
        Rio.Pool.create
          ~cfg:{ Rio.Options.default_pool with domains; accept_queue = 3 }
          ?chaos:
            (Option.map
               (fun ch_seed ->
                 {
                   Rio.Faultinject.ch_seed;
                   ch_period = 2;
                   ch_crash = true;
                   ch_stall = false;
                   ch_poison = false;
                   ch_hook_storm = false;
                 })
               chaos)
          ~boots:(pool_boots ~opts:default_opts) ()
      in
      (* admitted requests, newest first; req_id is the op index *)
      let admitted = ref [] in
      let results = ref [] in
      List.iteri
        (fun i op ->
          let request k seed =
            let name = List.nth serving_names k in
            {
              Rio.Pool.req_id = i;
              req_key = name;
              req_seed = seed;
              req_input = input_for (List.assoc name sites) seed;
              req_expect = Some (native name seed);
            }
          in
          match op with
          | Submit (k, seed) ->
              let r = request k seed in
              submit_ok pool r;
              admitted := r :: !admitted
          | Try_submit (k, seed) -> (
              let r = request k seed in
              match Rio.Pool.try_submit pool r with
              | Ok () -> admitted := r :: !admitted
              | Error (Rio.Pool.Overloaded _) -> ()
              | Error e ->
                  Alcotest.failf "try_submit rejected: %s"
                    (Rio.Pool.reject_to_string e))
          | Drain -> results := Rio.Pool.drain pool @ !results
          | Reload rebuild -> Rio.Pool.drain_and_reload ~rebuild pool)
        ops;
      results := Rio.Pool.drain pool @ !results;
      Rio.Pool.shutdown pool;
      let admitted = List.rev !admitted and results = !results in
      let sequential =
        let serve = warm_server ~opts:default_opts () in
        List.map
          (fun (r : Rio.Pool.request) ->
            let _, rt = serve (r.req_key, r.req_seed) in
            (r.req_key, r.req_seed, Vm.Machine.output (Rio.Engine.machine rt)))
          admitted
      in
      let pooled =
        List.map
          (fun (r : Rio.Pool.result) -> (r.res_key, r.res_seed, r.res_output))
          results
      in
      (List.sort compare (List.map (fun (r : Rio.Pool.result) -> r.res_id) results)
       = List.sort compare (List.map (fun (r : Rio.Pool.request) -> r.req_id) admitted)
      || QCheck.Test.fail_reportf "%d admitted, %d results"
           (List.length admitted) (List.length results))
      (* req_expect is native, so res_ok means the output matched it *)
      && List.for_all
           (fun (r : Rio.Pool.result) ->
             r.res_ok
             || QCheck.Test.fail_reportf "request %d (%s/%d) not ok: %s"
                  r.res_id r.res_key r.res_seed
                  (Rio.Engine.stop_reason_to_string r.res_reason))
           results
      && (List.sort compare pooled = List.sort compare sequential
         || QCheck.Test.fail_report "outputs differ from sequential service"))

(* ------------------------------------------------------------------ *)
(* Bundle overrides reach the booted instances                         *)
(* ------------------------------------------------------------------ *)

(* A tuned bundle's per-workload opt-level override must land in the
   Options of the instance the pool actually boots for that key — not
   just in the boot table.  Serve every key, then audit the fleet's
   live instances against the bundle's projection. *)
let bundle_override_case () =
  let bundle =
    {
      Rio.Bundle.b_opts = { default_opts with Rio.Options.opt_level = 2 };
      b_pool = { Rio.Options.default_pool with domains = 2 };
      b_overrides = [ ("gcc", 0); ("gzip", 1) ];
      b_provenance = Rio.Bundle.default_provenance;
    }
  in
  (match Rio.Bundle.validate bundle with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bundle: %s" (Rio.Bundle.error_to_string e));
  let boots =
    List.map
      (fun (name, boot) ->
        (name, { boot with Rio.Pool.boot_opts = Rio.Bundle.opts_for bundle name }))
      (pool_boots ~opts:default_opts)
  in
  let pool = Rio.Pool.create ~cfg:bundle.Rio.Bundle.b_pool ~boots () in
  List.iter (submit_ok pool) (pool_requests 8);
  let results = Rio.Pool.drain pool in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d ok" r.Rio.Pool.res_key r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results;
  let instances = Rio.Pool.For_testing.warm_instances pool in
  Alcotest.(check bool) "fleet has warm instances" true (instances <> []);
  let audited = ref 0 in
  List.iter
    (fun (worker, key, eng) ->
      let got = (Rio.Engine.options eng).Rio.Options.opt_level in
      let want = (Rio.Bundle.opts_for bundle key).Rio.Options.opt_level in
      incr audited;
      Alcotest.(check int)
        (Printf.sprintf "worker %d key %s opt level" worker key)
        want got)
    instances;
  (* both overridden keys were exercised, not just the base level *)
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "%s booted somewhere" key)
        true
        (List.exists (fun (_, k, _) -> k = key) instances))
    [ "gcc"; "gzip"; "perlbmk" ];
  Rio.Pool.shutdown pool

let () =
  Alcotest.run "pool"
    [
      ( "warm reuse == fresh",
        [
          QCheck_alcotest.to_alcotest
            (warm_equals_fresh ~name:"default options" ~opts:default_opts);
          QCheck_alcotest.to_alcotest
            (warm_equals_fresh ~name:"FIFO cache pressure"
               ~opts:pressure_opts);
        ] );
      ( "two-domain smoke",
        [
          Alcotest.test_case "same workload concurrently" `Slow
            (two_domain_smoke true);
          Alcotest.test_case "different workloads concurrently" `Slow
            (two_domain_smoke false);
        ] );
      ( "pool",
        [
          Alcotest.test_case "warm serving with backpressure" `Slow pool_case;
          Alcotest.test_case "serving under fault injection" `Slow
            pool_faults_case;
          Alcotest.test_case "completion hook fires once per batch" `Quick
            notify_case;
          Alcotest.test_case "batcher passes over a request boundedly" `Quick
            batcher_bound_case;
          Alcotest.test_case "snapshot refreshes free-list gauges" `Quick
            gauges_case;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "unknown key rejected, pool survives" `Quick
            unknown_key_case;
          Alcotest.test_case "worker killed mid-request is respawned" `Slow
            worker_kill_respawn_case;
          Alcotest.test_case "exception barrier yields Crashed result" `Quick
            crash_barrier_case;
          Alcotest.test_case "cycle deadline preempts" `Quick deadline_case;
          Alcotest.test_case "bundle override reaches instances" `Slow
            bundle_override_case;
          Alcotest.test_case "quarantine opens, probes, closes" `Slow
            quarantine_case;
          Alcotest.test_case "drain_and_reload keeps serving" `Slow
            reload_case;
          Alcotest.test_case "every new instance boots from the saved image"
            `Slow image_boot_case;
          QCheck_alcotest.to_alcotest hook_raise_never_hangs;
          QCheck_alcotest.to_alcotest interleavings_agree;
        ] );
    ]

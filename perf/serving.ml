(** The serving workloads, serve and restart: a live rio_serve driven
    over Unix sockets, with in-process pool replays for the per-layer
    split. *)

open Workloads
open Measure
open Layers

(* what rio_serve -O 3 builds for every instance *)
let serve_opts =
  { Rio.Options.default with Rio.Options.max_cycles = max_int / 2; opt_level = 3 }

let serving name = Workload.serving_variant (Option.get (Suite.by_name name))

(* [per_key] request templates per workload, seeded, each with its
   native reference; also the interpreter's ns per instruction. *)
let requests ~seed ~per_key (ws : Workload.t list) : Loadgen.req array array * float =
  let ns = ref 0 and insns = ref 0 in
  let reqs =
    Array.of_list
      (List.mapi
         (fun k (w : Workload.t) ->
           Array.init per_key (fun j ->
               let rseed = 1 + ((seed * 104729) + (k * 7919) + j) land 0x3fff_ffff in
               let input = Workload.request_input ~seed:rseed @ w.Workload.input in
               let nat = native_ref (Workload.with_input w input) in
               ns := !ns + nat.interp_ns;
               insns := !insns + nat.n_insns;
               { Loadgen.key = w.Workload.name; seed = rseed; input; expect = nat.out;
                 insns = nat.n_insns; cycles = nat.n_cycles }))
         ws)
  in
  Gc.full_major ();
  (reqs, float_of_int !ns /. float_of_int !insns)

(* Requests served one at a time by a one-domain pool: no scheduling
   freedom, so simulated cycles and engine counters are deterministic. *)
let pool_sequential ~boots (reqs : Loadgen.req list) =
  let cfg = { Rio.Options.default_pool with Rio.Options.domains = 1; prewarm = true } in
  let pool = Rio.Pool.create ~cfg ~boots () in
  Fun.protect ~finally:(fun () -> Rio.Pool.shutdown pool) (fun () ->
      let results =
        List.mapi
          (fun i r ->
            (match Rio.Pool.submit pool (pool_request i r) with
            | Ok () -> ()
            | Error e -> failwith (Rio.Pool.reject_to_string e));
            match Rio.Pool.drain pool with
            | [ x ] -> (r, x)
            | _ -> failwith "sequential replay: expected one result")
          reqs
      in
      (results, (Rio.Pool.stats pool).Rio.Pool.snap_stats))

let server_args keys =
  [ "-d"; "2"; "--prewarm"; "-O"; "3" ] @ List.concat_map (fun k -> [ "-w"; k ]) keys

(* Spawn a listening server; returns it with its spawn and listening
   times. *)
let start_server ~exe ~sock args : Child.t * int * int =
  let t0 = Span.now_ns () in
  let c = Child.spawn ~exe (args @ [ "--listen"; "unix:" ^ sock ]) in
  ignore (Child.wait_line c ~needle:"listening on" ~secs:60.0);
  (c, t0, Span.now_ns ())

(* Graceful stop through the quit op; a non-zero exit is a failure. *)
let stop_server (c : Child.t) (g : Loadgen.t) : bool =
  Loadgen.close g ~quit:true;
  match Child.finish c ~secs:30.0 with
  | Unix.WEXITED 0 -> true
  | _ -> false

(* Exponential inter-arrival offsets (ns) at [rate] per second. *)
let poisson_offsets rng ~rate ~n : int array =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
      int_of_float (!t *. 1e9))

let count_failed (samples : Loadgen.sample list) =
  List.length (List.filter (fun s -> not s.Loadgen.s_ok) samples)

(* Sends more than a millisecond behind schedule: the generator must
   not be the bottleneck. *)
let late_sends (samples : Loadgen.sample list) =
  List.length
    (List.filter (fun s -> s.Loadgen.s_sent - s.Loadgen.s_sched > 1_000_000) samples)

(* The share of the socket path's median latency that the in-process
   pool does not account for: wire, select loop and kernel. *)
let overhead_share ~socket ~inproc =
  let s = median socket in
  (s -. median inproc) /. s

let serve_keys = [ "gzip"; "perlbmk"; "applu"; "parser" ]
let open_rate = 150.0

(* serve: warm-up, an open-loop Poisson rung at 150 req/s, then a closed
   loop with 64 requests in flight, against a live rio_serve. *)
let serve ~exe ~dir ~seed ~seconds ~quick ~traced : outcome =
  let ws = List.map serving serve_keys in
  let reqs, interp = requests ~seed ~per_key:16 ws in
  (* The mix visits the workloads in a fixed rotation; the seed picks
     each request's input.  The warm code caches evolve with the order
     of workloads, so a seeded order would make throughput depend on
     the seed rather than on the code. *)
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let turn = ref 0 in
  let pick () =
    incr turn;
    let k = !turn mod Array.length reqs in
    reqs.(k).(Random.State.int rng (Array.length reqs.(k)))
  in
  let sock = Filename.concat dir "serve.sock" in
  let args = server_args serve_keys in
  (* The yardstick ticks only while no server work is in flight: before
     every spawn, for set-up, and between closed-loop windows, for
     throughput, both CPU-bound.  The open-loop latencies are not
     scaled: at 150 req/s they are mostly waiting on the server's 10 ms
     poll tick, which does not speed up with the host. *)
  let setup_meter = Calib.meter () and closed_meter = Calib.meter () in
  let pause meter =
    (* let the server's domains finish what follows the last response *)
    Unix.sleepf 0.02;
    Calib.ticks meter 6
  in
  (* set-up: spawn to "listening on", several times; the last one serves *)
  let spawns = if quick then 2 else 15 in
  let setups = ref [] in
  let rec boot k =
    pause setup_meter;
    let c, t0, t1 = start_server ~exe ~sock args in
    setups := secs_of_ns (t1 - t0) :: !setups;
    if k + 1 < spawns then begin
      if not (stop_server c (Loadgen.connect ~path:sock ~n:1)) then
        failwith "server exited non-zero";
      boot (k + 1)
    end
    else (c, t1)
  in
  let child, listening = boot 0 in
  let g = Loadgen.connect ~path:sock ~n:2 in
  let warm =
    Loadgen.closed_loop g ~per_conn:8 ~next:pick
      ~stop:(fun ~sent -> sent >= if quick then 100 else 400)
  in
  let first_s =
    List.fold_left max 0.0
      (List.map
         (fun k ->
           List.fold_left
             (fun acc (s : Loadgen.sample) ->
               if s.Loadgen.s_req.Loadgen.key = k && s.Loadgen.s_ok then
                 Float.min acc (secs_of_ns (s.Loadgen.s_done - listening))
               else acc)
             infinity warm)
         serve_keys)
  in
  (* open loop: latency from each request's scheduled send time *)
  let t_open = seconds *. if traced then 0.3 else 0.45 in
  let n_open = max 150 (int_of_float (open_rate *. t_open)) in
  let orng = Random.State.make [| seed; 0x0be7 |] in
  let offsets = poisson_offsets orng ~rate:open_rate ~n:n_open in
  let open_reqs = Array.init n_open (fun _ -> pick ()) in
  Span.enabled := traced;
  let t_start = Span.now_ns () + 5_000_000 in
  let opened = Array.to_list (Loadgen.open_loop g ~t_start ~offsets ~reqs:open_reqs) in
  Span.enabled := false;
  let latency s = ms_of_ns (s.Loadgen.s_done - s.Loadgen.s_sched) in
  let open_lat = List.filter_map (fun s -> if s.Loadgen.s_ok then Some (latency s) else None) opened in
  (* one-second windows of the schedule, for the tail *)
  let open_windows =
    List.init (max 1 (int_of_float t_open)) (fun k ->
        List.filter_map
          (fun s ->
            if s.Loadgen.s_ok && (s.Loadgen.s_sched - t_start) / 1_000_000_000 = k then
              Some (latency s)
            else None)
          opened)
    |> List.filter (fun l -> l <> [])
  in
  (* closed loop in windows, each drained and bracketed by the
     yardstick; a traced run alternates traced and untraced windows.  A
     window's rate runs from its first completion to its last.  With 64
     requests in flight the workers never run dry between two ticks of
     the server's 10 ms poll loop, so the loop measures capacity; with
     16 the queue drains within a tick and throughput jumps with the
     tick's phase. *)
  let windows = if traced then 8 else 7 in
  let w_ns = int_of_float (seconds *. 0.065 *. 1e9) in
  let closed_windows =
    List.init windows (fun k ->
        pause closed_meter;
        let tr = traced && k mod 2 = 1 in
        Span.enabled := tr;
        let c0 = Span.now_ns () in
        let samples =
          Loadgen.closed_loop g ~per_conn:32 ~next:pick ~stop:(fun ~sent:_ ->
              Span.now_ns () - c0 >= w_ns)
        in
        Span.enabled := false;
        let done_ =
          List.sort compare
            (List.filter_map
               (fun s ->
                 if s.Loadgen.s_ok then Some (s.Loadgen.s_done, s.Loadgen.s_req.Loadgen.insns)
                 else None)
               samples)
        in
        match done_ with
        | (first, _) :: (_ :: _ as rest) ->
            let span = float_of_int (List.fold_left (fun _ (t, _) -> t) first rest - first) in
            ( float_of_int (List.length rest) /. (span /. 1e9),
              float_of_int (List.fold_left (fun a (_, i) -> a + i) 0 rest) /. (span /. 1e3),
              tr,
              samples )
        | _ -> failwith "closed-loop window saw fewer than two completions")
  in
  let rss = Child.peak_rss_mb child.Child.pid in
  let clean_exit = stop_server child g in
  let plain = List.filter (fun (_, _, tr, _) -> not tr) closed_windows in
  pause closed_meter;
  let f = Calib.factor (Calib.mean closed_meter) in
  let rps = median (List.map (fun (r, _, _, _) -> r) plain) /. f in
  let mips = median (List.map (fun (_, m, _, _) -> m) plain) /. f in
  let y = Calib.mean closed_meter in
  (* deterministic simulated-cycle ratio and engine counters *)
  let boots = List.map (boot_of ~opts:serve_opts) ws in
  let seq_reqs =
    List.concat (List.init 16 (fun j -> Array.to_list (Array.map (fun a -> a.(j)) reqs)))
  in
  let seq, seq_stats = pool_sequential ~boots seq_reqs in
  let seq_failed = List.length (List.filter (fun (_, r) -> not r.Rio.Pool.res_ok) seq) in
  let sim_ratio =
    geomean
      (List.map
         (fun ((q : Loadgen.req), (r : Rio.Pool.result)) ->
           float_of_int r.Rio.Pool.res_cycles /. float_of_int q.Loadgen.cycles)
         seq)
  in
  let all = warm @ opened @ List.concat_map (fun (_, _, _, s) -> s) closed_windows in
  let attempted = List.length all + List.length seq in
  let failed = count_failed all + seq_failed + if clean_exit then 0 else 1 in
  let e2e =
    [ ("setup_s", median !setups *. Calib.factor (Calib.mean setup_meter));
      ("mips", mips); ("rps", rps);
      ("p50_ms", quantile open_lat 0.50); ("p99_ms", tail_p99 open_windows);
      ("sim_ratio", sim_ratio); ("rss_mb", rss) ]
  in
  if not traced then { e2e; layer = []; attempted; failed; consistent = true; yardstick_ns = y }
  else begin
    let traced_rps =
      median (List.filter_map (fun (r, _, tr, _) -> if tr then Some r else None) closed_windows)
      /. f
    in
    Span.enabled := true;
    let rp = pool_replay ~boots ~warm:(List.init 400 (fun _ -> pick ())) ~offsets ~reqs:open_reqs in
    let probe, kept =
      instance_probe ~opts:serve_opts (List.mapi (fun k w -> (w, reqs.(k).(0))) ws)
    in
    let persist = persist_roundtrip ~dir ~opts:serve_opts kept in
    let replays = layer_replays ws in
    Span.enabled := false;
    let insns = List.fold_left (fun a (_, r) -> a + r.Rio.Pool.res_insns) 0 seq in
    let cycles = List.fold_left (fun a (_, r) -> a + r.Rio.Pool.res_cycles) 0 seq in
    let secs = fsum (List.map (fun (_, r) -> r.Rio.Pool.res_secs) seq) in
    let run_per_insn = secs *. 1e9 /. float_of_int insns in
    let first_blocks =
      List.filteri (fun i _ -> i < List.length serve_keys) seq
      |> List.map (fun (_, r) -> float_of_int r.Rio.Pool.res_blocks_built)
    in
    let layer =
      engine_counts ~ops:(List.length seq) ~cycles seq_stats
      @ pool_layer rp
      @ [ ("blockbuild.blocks_first_pass",
            fsum first_blocks /. float_of_int (List.length first_blocks));
          ("vm.interp_ns_per_insn", interp);
          ("engine.run_ns_per_insn", run_per_insn);
          ("engine.overhead_ns_per_insn", run_per_insn -. interp);
          ("server.overhead_share", overhead_share ~socket:open_lat ~inproc:rp.rp_lat_ms);
          ("gen.late_sends", float_of_int (late_sends opened));
          ("first_s", first_s);
          ("trace_overhead_frac", (rps /. traced_rps) -. 1.0) ]
      @ wire_replay (List.concat_map Array.to_list (Array.to_list reqs))
      @ probe @ persist @ replays
    in
    { e2e; layer; attempted = attempted + List.length rp.rp_results;
      failed = failed + rp.rp_failed; consistent = true; yardstick_ns = y }
  end

let restart_keys = [ "gcc"; "perlbmk"; "parser"; "mesa"; "gzip"; "crafty"; "eon"; "gap" ]

type deploy = {
  d_setup : int;    (** spawn -> "listening on", ns *)
  d_first : int;    (** "listening on" -> last first response *)
  d_window : int;   (** first send -> last response *)
  d_samples : Loadgen.sample list;
  d_rss : float;
  d_clean : bool;   (** exited 0 after the quit op *)
  d_traced : bool;
  d_yard : float;   (** mean yardstick tick around the deploy, ns *)
}

(* restart: cache images primed once, then repeated deploys of a
   two-domain server that warm-boots from them and serves one request
   per program. *)
let restart ~exe ~dir ~seed ~seconds ~quick ~traced : outcome =
  let ws = List.map serving restart_keys in
  let nk = List.length ws in
  let reqs, interp = requests ~seed ~per_key:16 ws in
  let cache = Filename.concat dir "cache" in
  let sock = Filename.concat dir "restart.sock" in
  (* one domain and fixed requests: the images depend on neither --seed
     nor scheduling *)
  let primer =
    Child.spawn ~exe
      ([ "-d"; "1"; "-O"; "3"; "-n"; string_of_int (2 * nk); "--seed"; "1";
         "--cache-dir"; cache; "--save-cache"; "--quiet" ]
      @ List.concat_map (fun k -> [ "-w"; k ]) restart_keys)
  in
  (match Child.finish primer ~secs:120.0 with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "priming the cache images failed");
  let boots =
    List.map
      (fun (w : Workload.t) ->
        boot_of ~opts:serve_opts
          ~cache:(Filename.concat cache (Rio.Pool.cache_file_name w.Workload.name)) w)
      ws
  in
  (* every image must load, as the server will load it *)
  let loaded =
    List.map
      (fun ((_, b) : string * Rio.Pool.boot) ->
        let rt = Rio.create ~opts:serve_opts (b.Rio.Pool.boot_machine ()) in
        let path = Option.get b.Rio.Pool.boot_cache in
        ( Result.is_ok
            (Rio.Engine.load_image rt ~image_digest:b.Rio.Pool.boot_image_digest ~path),
          rt ))
      boots
  in
  let refused = List.length (List.filter (fun (ok, _) -> not ok) loaded) in
  let rng = Random.State.make [| seed; 0x7e57 |] in
  let deploy r =
    let meter = Calib.meter () in
    Calib.ticks meter 3;
    Span.enabled := traced && r mod 2 = 1;
    let c, t0, t1 =
      start_server ~exe ~sock
        (server_args restart_keys @ [ "--cache-dir"; cache; "--load-cache" ])
    in
    let g = Loadgen.connect ~path:sock ~n:2 in
    let order = shuffle rng nk in
    let batch = Array.map (fun k -> reqs.(k).(r mod 16)) order in
    let t2 = Span.now_ns () in
    let samples =
      Array.to_list (Loadgen.open_loop g ~t_start:t2 ~offsets:(Array.make nk 0) ~reqs:batch)
    in
    let d_traced = !Span.enabled in
    Span.enabled := false;
    let t3 = List.fold_left (fun a s -> max a s.Loadgen.s_done) t2 samples in
    let d_rss = Child.peak_rss_mb c.Child.pid in
    let d_clean = stop_server c g in
    Calib.ticks meter 3;
    let d_yard = Calib.mean meter in
    { d_setup = t1 - t0; d_first = t3 - t1; d_window = t3 - t2; d_samples = samples;
      d_rss; d_clean; d_traced; d_yard }
  in
  (* deploy 0 is discarded (first exec of the binary, cold page cache) *)
  let min_deploys = if quick then 2 else 10 and max_deploys = if quick then 2 else 400 in
  ignore (deploy 0);
  let t_start = Span.now_ns () in
  let rec more r acc =
    if r <= max_deploys && (r <= min_deploys || secs_of_ns (Span.now_ns () - t_start) < seconds)
    then more (r + 1) (deploy r :: acc)
    else List.rev acc
  in
  let measured = more 1 [] in
  let plain = List.filter (fun d -> not d.d_traced) measured in
  let samples = List.concat_map (fun d -> d.d_samples) measured in
  (* simulated cycles per program must repeat across deploys *)
  let cycles_of key =
    List.filter_map
      (fun s ->
        if s.Loadgen.s_req.Loadgen.key = key && s.Loadgen.s_ok then
          Some (s.Loadgen.s_cycles, s.Loadgen.s_req.Loadgen.cycles)
        else None)
      samples
  in
  let consistent =
    List.for_all
      (fun k -> match cycles_of k with [] -> false | x :: l -> List.for_all (( = ) x) l)
      restart_keys
  in
  let sim_ratio =
    geomean
      (List.filter_map
         (fun k ->
           match cycles_of k with
           | (c, nat) :: _ -> Some (float_of_int c /. float_of_int nat)
           | [] -> None)
         restart_keys)
  in
  (* host times of a deploy, scaled by its yardstick *)
  let scaled d ns = float_of_int ns *. Calib.factor d.d_yard in
  let latencies d =
    List.filter_map
      (fun s ->
        if s.Loadgen.s_ok then Some (scaled d (s.Loadgen.s_done - s.Loadgen.s_sched) /. 1e6)
        else None)
      d.d_samples
  in
  let med f = median (List.map f plain) in
  let e2e =
    [ ("setup_s", med (fun d -> scaled d d.d_setup /. 1e9));
      ("mips",
        med (fun d ->
            float_of_int
              (List.fold_left (fun a x -> a + x.Loadgen.s_req.Loadgen.insns) 0 d.d_samples)
            /. (scaled d d.d_window /. 1e3)));
      ("rps", med (fun d -> float_of_int nk /. (scaled d d.d_window /. 1e9)));
      ("p50_ms", quantile (List.concat_map latencies plain) 0.50);
      ("p99_ms", tail_p99 (List.map latencies plain));
      ("sim_ratio", sim_ratio); ("rss_mb", med (fun d -> d.d_rss)) ]
  in
  let unclean = List.length (List.filter (fun d -> not d.d_clean) measured) in
  let attempted = List.length samples + nk in
  let failed = count_failed samples + unclean + refused in
  let y = median (List.map (fun d -> d.d_yard) measured) in
  if not traced then { e2e; layer = []; attempted; failed; consistent; yardstick_ns = y }
  else begin
    let traced_w =
      List.filter_map (fun d -> if d.d_traced then Some (scaled d d.d_window) else None) measured
    in
    Span.enabled := true;
    let batch = Array.init nk (fun k -> reqs.(k).(0)) in
    let rp = pool_replay ~boots ~warm:[] ~offsets:(Array.make nk 0) ~reqs:batch in
    let probe, _ =
      instance_probe ~opts:serve_opts (List.mapi (fun k w -> (w, reqs.(k).(0))) ws)
    in
    let persist =
      persist_roundtrip ~dir ~opts:serve_opts (List.map2 (fun w (_, rt) -> (w, rt)) ws loaded)
    in
    let replays = layer_replays ws in
    Span.enabled := false;
    let res = rp.rp_results in
    let isum f = List.fold_left (fun a r -> a + f r) 0 res in
    let run_per_insn =
      fsum (List.map (fun r -> r.Rio.Pool.res_secs) res)
      *. 1e9
      /. float_of_int (isum (fun r -> r.Rio.Pool.res_insns))
    in
    let layer =
      engine_counts ~ops:nk ~cycles:(isum (fun r -> r.Rio.Pool.res_cycles))
        rp.rp_snap.Rio.Pool.snap_stats
      @ pool_layer rp
      @ [ ("blockbuild.blocks_first_pass",
            float_of_int (isum (fun r -> r.Rio.Pool.res_blocks_built)) /. float_of_int nk);
          ("vm.interp_ns_per_insn", interp);
          ("engine.run_ns_per_insn", run_per_insn);
          ("engine.overhead_ns_per_insn", run_per_insn -. interp);
          ("server.overhead_share",
            overhead_share
              ~socket:
                (List.concat_map
                   (fun d ->
                     List.map (fun s -> ms_of_ns (s.Loadgen.s_done - s.Loadgen.s_sched)) d.d_samples)
                   plain)
              ~inproc:rp.rp_lat_ms);
          ("gen.late_sends", float_of_int (late_sends samples));
          ("first_s", med (fun d -> secs_of_ns d.d_first));
          ("trace_overhead_frac", (median traced_w /. med (fun d -> scaled d d.d_window)) -. 1.0) ]
      @ wire_replay (List.init nk (fun k -> reqs.(k).(0)))
      @ probe
      @ List.map
          (fun (k, v) ->
            if k = "persist.refused" then
              (k, v +. float_of_int (refused + rp.rp_snap.Rio.Pool.snap_cache_refused))
            else (k, v))
          persist
      @ replays
    in
    { e2e; layer; attempted = attempted + List.length res;
      failed = failed + rp.rp_failed; consistent; yardstick_ns = y }
  end

(** Domain-parallel serving driver: serve a request stream from one
    run queue on a pool of worker domains with warm code-cache reuse —
    as a one-shot batch harness, a resident
    socket server, or a client driving one (DESIGN.md §6.10).

    {v
    dune exec bin/rio_serve.exe -- -d 4 -n 64
    dune exec bin/rio_serve.exe -- -d 2 -n 32 -w gzip -w parser -c rlr --stats
    dune exec bin/rio_serve.exe -- -d 4 -n 64 --faults 7
    # resident server with a pre-warmed pool, and a client against it:
    dune exec bin/rio_serve.exe -- -d 4 --prewarm --listen unix:/tmp/rio.sock
    dune exec bin/rio_serve.exe -- -n 64 --connect unix:/tmp/rio.sock --quit
    v}

    Each request is a (workload, input-seed) pair run to completion; a
    native reference execution is computed per request up front and
    every pool result is checked byte-for-byte against it.  Exit
    status is non-zero on any divergence. *)

open Cmdliner
open Workloads

let default_workloads = [ "gzip"; "parser"; "perlbmk"; "gcc" ]

let client_of_name = function
  | "null" -> Rio.Types.null_client
  | "rlr" -> Clients.Rlr.make ()
  | "strength" -> Clients.Strength.make ~on_bb:false
  | "ibdispatch" -> Clients.Ibdispatch.make ()
  | "ctraces" -> Stdlib.fst (Clients.Ctraces.make ())
  | "combined" -> Clients.Compose.all_four ()
  | n -> failwith ("unknown client: " ^ n)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let parse_addr s =
  match Rio.Server.addr_of_string s with
  | Ok a -> a
  | Error msg ->
      Printf.eprintf "rio_serve: %s\n" msg;
      exit 2

let run nreq workload_names client_name seed0 engine pool faults chaos
    bundle_path cache_dir load_cache save_cache listen_addr connect_addr
    send_quit show_stats quiet =
  if listen_addr <> None && connect_addr <> None then begin
    Printf.eprintf "rio_serve: --listen and --connect are exclusive\n";
    exit 2
  end;
  if (load_cache || save_cache) && cache_dir = None then begin
    Printf.eprintf "rio_serve: --load-cache/--save-cache need --cache-dir\n";
    exit 2
  end;
  (* --bundle: a tuned configuration artifact (bench/main.exe autotune)
     is the base every engine and pool flag overrides when given; its
     per-workload overrides and the fault/chaos overlays still apply. *)
  let bundle =
    match bundle_path with
    | None -> None
    | Some path -> (
        match Rio.Bundle.load path with
        | Ok b -> Some b
        | Error e ->
            Printf.eprintf "rio_serve: --bundle %s: %s\n" path
              (Rio.Bundle.error_to_string e);
            exit 2)
  in
  let base =
    match bundle with
    | Some b -> b
    | None ->
        {
          Rio.Bundle.b_opts =
            { Rio.Options.default with max_cycles = max_int / 2 };
          b_pool = Rio.Options.default_pool;
          b_overrides = [];
          b_provenance = Rio.Bundle.default_provenance;
        }
  in
  let base =
    { base with b_opts = engine base.b_opts; b_pool = pool base.b_pool }
  in
  let cfg = base.Rio.Bundle.b_pool in
  let nd = cfg.Rio.Options.domains in
  (match Rio.Options.pool_ranges cfg with
   | Ok () -> ()
   | Error msg ->
       Printf.eprintf "rio_serve: invalid pool configuration: %s\n" msg;
       exit 2);
  let workload_names =
    if workload_names = [] then default_workloads else workload_names
  in
  let wls =
    List.map
      (fun name ->
        match Suite.by_name name with
        | Some w -> Workload.serving_variant w
        | None ->
            Printf.eprintf "unknown workload %S\n" name;
            exit 1)
      workload_names
  in
  (try ignore (client_of_name client_name)
   with Failure msg ->
     Printf.eprintf "%s\n" msg;
     exit 1);
  let fault_opts =
    match faults with
    | None -> None
    | Some seed -> Some { Rio.Options.default_faults with fi_seed = seed }
  in
  (* fault/chaos instrumentation overlays whatever configuration is in
     force — flags or bundle *)
  let overlay o =
    {
      o with
      Rio.Options.faults = fault_opts;
      audit_period = (match faults with Some _ -> 1 | None -> 0);
    }
  in
  (* per-workload engine options: the bundle's overrides reach each
     booted instance here *)
  let opts_for name = overlay (Rio.Bundle.opts_for base name) in
  let opts = overlay base.Rio.Bundle.b_opts in
  (match Rio.Options.validate opts with
   | Ok () -> ()
   | Error msg ->
       Printf.eprintf "rio_serve: invalid options: %s\n" msg;
       exit 2);
  (* the request stream, interleaved across workloads, with a native
     reference execution per request *)
  let make_requests () =
    Workload.request_maker wls ~seed_base:seed0 nreq ~native:(fun w ->
        let native = Workload.run_native w in
        if not native.Workload.ok then begin
          Printf.eprintf "native reference failed for %s: %s\n"
            w.Workload.name native.Workload.detail;
          exit 1
        end;
        native.Workload.output)
  in
  match connect_addr with
  | Some addr_s ->
      (* client mode: no local pool — stream the request mix to a
         resident server and check its responses against locally
         computed native references *)
      let addr = parse_addr addr_s in
      let reqs =
        List.map
          (fun (r : Rio.Pool.request) ->
            (r.req_key, r.req_seed, r.req_input, r.req_expect))
          (make_requests ())
      in
      let fd = Rio.Server.connect addr in
      let t0 = Unix.gettimeofday () in
      let resps =
        try Rio.Server.client_run fd reqs
        with Rio.Codec.Error e ->
          Printf.eprintf "rio_serve: malformed response from %s: %s\n"
            (Rio.Server.addr_to_string addr)
            (Rio.Codec.error_to_string e);
          exit 1
      in
      let wall = Unix.gettimeofday () -. t0 in
      if send_quit then Rio.Wire.send_msg fd Rio.Wire.Quit;
      Unix.close fd;
      let count st =
        List.length
          (List.filter (fun r -> r.Rio.Wire.r_status = st) resps)
      in
      let ok = count Rio.Wire.St_ok in
      let failed = count Rio.Wire.St_failed in
      let shed = count Rio.Wire.St_shed in
      let other = List.length resps - ok - failed - shed in
      let lat =
        Array.of_list
          (List.filter_map
             (fun r ->
               if r.Rio.Wire.r_status = Rio.Wire.St_ok then
                 Some (float_of_int r.Rio.Wire.r_cycles)
               else None)
             resps)
      in
      Array.sort compare lat;
      if not quiet then begin
        Printf.printf
          "%s: %d requests in %.3fs — ok %d, failed %d, shed %d, other %d\n"
          (Rio.Server.addr_to_string addr)
          (List.length resps) wall ok failed shed other;
        if Array.length lat > 0 then
          Printf.printf
            "  sim-latency p50 %.0f  p95 %.0f  p99 %.0f cycles\n"
            (percentile lat 0.50) (percentile lat 0.95) (percentile lat 0.99)
      end;
      List.iter
        (fun r ->
          if r.Rio.Wire.r_status = Rio.Wire.St_failed then
            Printf.eprintf "FAILED: request id %d: [%s]\n" r.Rio.Wire.r_id
              (String.concat "; "
                 (List.map string_of_int r.Rio.Wire.r_output)))
        resps;
      if failed = 0 && other = 0 then 0 else 1
  | None ->
  let boots =
    Workload.pool_boots
      ~client:(fun () -> client_of_name client_name)
      ?cache_dir:(if load_cache then cache_dir else None)
      ~opts:opts_for wls
  in
  let chaos_opts =
    Option.map
      (fun seed -> { Rio.Faultinject.default_chaos with ch_seed = seed })
      chaos
  in
  let pool = Rio.Pool.create ~cfg ?chaos:chaos_opts ~boots () in
  match listen_addr with
  | Some addr_s ->
      (* server mode: pre-warmed pool behind the socket front-end; the
         loop runs until a client sends the quit op *)
      let addr = parse_addr addr_s in
      let lfd = Rio.Server.listen addr in
      if not quiet then
        Printf.printf "rio_serve: listening on %s (%d domain%s%s)\n%!"
          (Rio.Server.addr_to_string addr)
          nd
          (if nd = 1 then "" else "s")
          (if cfg.Rio.Options.prewarm then ", pre-warmed" else "");
      let sst = Rio.Server.run pool [ lfd ] in
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (match addr with
      | Rio.Server.Unix_addr p -> (try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      | Rio.Server.Tcp_addr _ -> ());
      ignore (Rio.Pool.drain pool);
      let snap = Rio.Pool.stats pool in
      (if save_cache then
         match cache_dir with
         | Some dir -> ignore (Rio.Pool.save_caches pool ~dir)
         | None -> ());
      Rio.Pool.shutdown pool;
      if not quiet then begin
        Printf.printf
          "served %d request(s) over %d connection(s): %d response(s), %d \
           typed reject(s)\n"
          sst.Rio.Server.sv_requests sst.Rio.Server.sv_accepted
          sst.Rio.Server.sv_responses sst.Rio.Server.sv_rejects;
        Printf.printf
          "  warm hits %d  cold boots %d  prewarm boots %d  shed %d  \
           batched %d\n"
          snap.Rio.Pool.snap_warm_hits snap.Rio.Pool.snap_cold_boots
          snap.Rio.Pool.snap_prewarm_boots snap.Rio.Pool.snap_shed
          snap.Rio.Pool.snap_batch_hits;
        Printf.printf "  sim-latency p50 %d  p99 %d cycles\n"
          (Rio.Stats.hist_percentile snap.Rio.Pool.snap_serve_lat 50)
          (Rio.Stats.hist_percentile snap.Rio.Pool.snap_serve_lat 99)
      end;
      0
  | None ->
  let requests = make_requests () in
  let t0 = Unix.gettimeofday () in
  let rejected = ref 0 in
  List.iter
    (fun r ->
      match Rio.Pool.submit pool r with
      | Ok () -> ()
      | Error e ->
          incr rejected;
          Printf.eprintf "REJECTED: %s seed %d: %s\n" r.Rio.Pool.req_key
            r.Rio.Pool.req_seed
            (Rio.Pool.reject_to_string e))
    requests;
  let results = Rio.Pool.drain pool in
  let wall = Unix.gettimeofday () -. t0 in
  let snap = Rio.Pool.stats pool in
  (* snapshot-on-drain: persist every warm cache before the fleet goes
     away, so the next run's --load-cache warm-boots from it *)
  (if save_cache then
     match cache_dir with
     | Some dir ->
         let saved = Rio.Pool.save_caches pool ~dir in
         if not quiet then
           List.iter
             (fun (key, path, n) ->
               Printf.printf "saved %d fragment(s) of %s to %s\n" n key path)
             saved
     | None -> ());
  Rio.Pool.shutdown pool;
  (* correctness: every result must match its native reference *)
  let bad = List.filter (fun r -> not r.Rio.Pool.res_ok) results in
  List.iter
    (fun r ->
      Printf.eprintf "DIVERGENCE: %s seed %d on domain %d (%s): [%s]\n"
        r.Rio.Pool.res_key r.Rio.Pool.res_seed r.Rio.Pool.res_worker
        (Rio.Engine.stop_reason_to_string r.Rio.Pool.res_reason)
        (String.concat "; " (List.map string_of_int r.Rio.Pool.res_output)))
    bad;
  let insns =
    List.fold_left (fun a r -> a + r.Rio.Pool.res_insns) 0 results
  in
  let cycles =
    List.fold_left (fun a r -> a + r.Rio.Pool.res_cycles) 0 results
  in
  let lat = Array.of_list (List.map (fun r -> r.Rio.Pool.res_secs) results) in
  Array.sort compare lat;
  let warm = List.filter (fun r -> r.Rio.Pool.res_warm) results in
  let cold = List.filter (fun r -> not r.Rio.Pool.res_warm) results in
  let avg_blocks rs =
    if rs = [] then 0.0
    else
      float_of_int
        (List.fold_left (fun a r -> a + r.Rio.Pool.res_blocks_built) 0 rs)
      /. float_of_int (List.length rs)
  in
  if not quiet then begin
    Printf.printf
      "served %d requests (%s) on %d domain%s in %.3fs host time\n"
      (List.length results)
      (String.concat "," workload_names)
      nd
      (if nd = 1 then "" else "s")
      wall;
    (match bundle with
     | Some b ->
         Printf.printf "  bundle %08x (created by %s): %s\n"
           (Rio.Bundle.digest b) b.Rio.Bundle.b_provenance.Rio.Bundle.pv_created_by
           b.Rio.Bundle.b_provenance.Rio.Bundle.pv_note
     | None -> ());
    Printf.printf
      "  %.1f MIPS aggregate (%d simulated insns, %d simulated cycles)\n"
      (float_of_int insns /. wall /. 1e6)
      insns cycles;
    (* the autotuner's objective, for apples-to-apples comparison with
       BENCH_autotune.json (noise-free only with -d 1) *)
    (match bundle with
     | Some _ ->
         let by_wl = Hashtbl.create 16 in
         List.iter
           (fun r ->
             let prev =
               Option.value ~default:(0, 0)
                 (Hashtbl.find_opt by_wl r.Rio.Pool.res_key)
             in
             Hashtbl.replace by_wl r.Rio.Pool.res_key
               (fst prev + r.Rio.Pool.res_cycles, snd prev + 1))
           results;
         let means =
           Hashtbl.fold
             (fun _ (c, n) acc -> (float_of_int c /. float_of_int n) :: acc)
             by_wl []
         in
         if means <> [] then
           Printf.printf
             "  objective: geomean %.0f simulated cycles/request over %d \
              workload(s)\n"
             (exp
                (List.fold_left (fun a x -> a +. log x) 0.0 means
                /. float_of_int (List.length means)))
             (List.length means)
     | None -> ());
    Printf.printf "  latency p50 %.1fms  p95 %.1fms  p99 %.1fms\n"
      (1e3 *. percentile lat 0.50)
      (1e3 *. percentile lat 0.95)
      (1e3 *. percentile lat 0.99);
    Printf.printf "  warm hits %d  cold boots %d\n"
      snap.Rio.Pool.snap_warm_hits snap.Rio.Pool.snap_cold_boots;
    if load_cache || snap.Rio.Pool.snap_cache_loads > 0 then
      Printf.printf "  persistent cache: loads %d  refused %d\n"
        snap.Rio.Pool.snap_cache_loads snap.Rio.Pool.snap_cache_refused;
    Printf.printf
      "  block builds per request: %.1f warm vs %.1f cold (%d/%d requests warm)\n"
      (avg_blocks warm) (avg_blocks cold) (List.length warm)
      (List.length results);
    Printf.printf "  per-domain simulated busy cycles: [%s]\n"
      (String.concat "; "
         (Array.to_list
            (Array.map string_of_int snap.Rio.Pool.snap_busy_cycles)));
    if
      chaos <> None || cfg.Rio.Options.deadline_cycles <> None
      || cfg.Rio.Options.deadline_secs <> None
      || snap.Rio.Pool.snap_crashes > 0
      || snap.Rio.Pool.snap_retries > 0
    then begin
      Printf.printf
        "  supervision: crashes %d  deadline hits %d  retries %d\n"
        snap.Rio.Pool.snap_crashes snap.Rio.Pool.snap_deadline_hits
        snap.Rio.Pool.snap_retries;
      Printf.printf
        "  quarantine: opens %d  closes %d  probes %d  rejected %d  open now \
         %d\n"
        snap.Rio.Pool.snap_quarantine_opens
        snap.Rio.Pool.snap_quarantine_closes snap.Rio.Pool.snap_probes
        snap.Rio.Pool.snap_rejected_quarantined
        snap.Rio.Pool.snap_quarantined_now
    end
  end;
  if show_stats then begin
    Format.printf "aggregate runtime stats (merged across instances):@.";
    Format.printf "%a@." (Rio.Stats.pp_report opts) snap.Rio.Pool.snap_stats
  end;
  let accepted = List.length requests - !rejected in
  let lost = accepted - List.length results in
  if lost > 0 then
    Printf.eprintf "LOST: %d accepted request(s) never produced a result\n"
      lost;
  if bad = [] && lost = 0 then 0 else 1

let cmd =
  let nreq =
    Arg.(value & opt int 16 & info [ "n"; "requests" ] ~docv:"N"
           ~doc:"Requests to serve.")
  in
  let workloads =
    Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Workload(s) in the request mix; repeatable.  Default: \
                 gzip, parser, perlbmk, gcc.")
  in
  let client =
    Arg.(value & opt string "null" & info [ "c"; "client" ] ~docv:"CLIENT"
           ~doc:"Client attached to every instance (null, rlr, strength, \
                 ibdispatch, ctraces, combined).")
  in
  let seed0 =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
           ~doc:"Base request seed; request i uses seed S+i.")
  in
  let faults =
    Arg.(value & opt (some int) None & info [ "faults" ] ~docv:"SEED"
           ~doc:"Enable deterministic fault injection in every instance.")
  in
  let chaos =
    Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED"
           ~doc:"Enable pool-scope chaos injection (crashes mid-request, \
                 stalls, poisoned warm instances, hook storms) with this \
                 seed; the exception barrier, retry ladder, and quarantine \
                 must absorb it.")
  in
  let bundle =
    Arg.(value & opt (some string) None & info [ "bundle" ] ~docv:"FILE"
           ~doc:"Boot from a tuned configuration bundle (bench/main.exe \
                 autotune emits one): its engine and pool options are the \
                 base that every engine and pool flag overrides when \
                 given, and its per-workload opt-level overrides apply on \
                 top.  --faults/--chaos still overlay.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Directory for persistent code-cache images \
                 (*.riocache); created on save if missing.")
  in
  let load_cache =
    Arg.(value & flag & info [ "load-cache" ]
           ~doc:"Warm-boot every new instance from its saved cache image \
                 under --cache-dir (relocation replay, no re-emission); \
                 a refused image falls back to a cold boot.")
  in
  let save_cache =
    Arg.(value & flag & info [ "save-cache" ]
           ~doc:"After draining, save each workload's fullest warm \
                 instance to --cache-dir for a later --load-cache run.")
  in
  let listen =
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Run as a resident server on ADDR (unix:PATH or \
                 tcp:HOST:PORT): accept framed requests over the socket \
                 and stream responses until a client sends the quit op.")
  in
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Run as a client: stream the request mix to the server \
                 at ADDR and check its responses against local native \
                 references.")
  in
  let quit =
    Arg.(value & flag & info [ "quit" ]
           ~doc:"Client mode: send the quit op after the last response, \
                 shutting the server down.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print aggregate runtime statistics (merged across all \
                 warm instances).")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Only report divergences.") in
  let term =
    Term.(
      const run $ nreq $ workloads $ client $ seed0 $ Rio.Cli.engine
      $ Rio.Cli.pool $ faults $ chaos $ bundle $ cache_dir $ load_cache
      $ save_cache $ listen $ connect $ quit $ stats $ quiet)
  in
  Cmd.v
    (Cmd.info "rio_serve"
       ~doc:"Serve workload requests on a domain-parallel RIO pool")
    term

let () = exit (Cmd.eval' cmd)

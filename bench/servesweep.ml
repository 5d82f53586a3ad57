(** Serving sweep: the socket front-end, admission control, batching
    and pre-warming evaluation (DESIGN.md §6.10), written to
    BENCH_serve.json.

    Three sections, each with hard gates:

    {ol
    {- {b Closed loop}: a pre-warmed pool serves an interleaved
       request mix with blocking submits.  Gates: zero divergence from
       native, zero cold boots in either pass (pre-warming builds every
       (worker, key) instance before the first request), zero shed.
       The empirical service-time distribution for section 2 is then
       re-measured on a {e single-domain} pre-warmed pool: with one
       worker, which request meets which warm instance — and so every
       per-request cycle count — is a deterministic function of the
       request list alone (the same determinism trick autotune
       uses, DESIGN.md §6.9), so the open-loop gates are exact
       replays, not statistics over scheduler noise.}
    {- {b Open loop}: a deterministic d-server bounded-queue model
       replays the measured service times under Poisson arrivals
       (seeded LCG) at a ladder of offered loads ρ.  Sim-latency is
       queueing delay plus service, all in simulated cycles — no host
       noise.  Gates: zero shed at ρ ≤ 0.8; p99 latency at ρ = 0.8
       within budget; past saturation the model sheds and the latency
       of {e accepted} requests stays bounded by the admission cap.}
    {- {b Socket smoke}: a live server ({!Rio.Server.run} on a worker
       domain) behind a deliberately tiny accept queue, hit with a
       burst over a Unix socket.  Gates: at least one typed shed, at
       least one success, every successful response byte-identical to
       native, no failed responses.}} *)

open Workloads

let pr fmt = Printf.printf fmt

let mix_names ~quick =
  if quick then [ "gzip"; "parser" ] else [ "gzip"; "parser"; "perlbmk"; "gcc" ]

let closed_domains ~quick = if quick then 2 else 4
let closed_requests ~quick = if quick then 24 else 48
let open_arrivals ~quick = if quick then 500 else 2000
let rho_ladder ~quick =
  if quick then [ 0.5; 0.8; 2.0 ] else [ 0.25; 0.5; 0.8; 1.5; 2.0 ]

(* admission cap of the open-loop model (requests in system before an
   arrival is shed), mirroring the pool's [accept_queue] *)
let model_cap = 64

(* ------------------------------------------------------------------ *)
(* Deterministic randomness                                           *)
(* ------------------------------------------------------------------ *)

(* 48-bit LCG (the classic drand48 multiplier): every open-loop rung is
   a pure function of its seed, so the gates are reproducible runs, not
   statistical hopes. *)
let lcg_mask = (1 lsl 48) - 1

let lcg_next st =
  st := ((25214903917 * !st) + 11) land lcg_mask;
  !st

(* uniform in (0, 1] — never 0, so log is finite *)
let lcg_unit st = (float_of_int (lcg_next st) +. 1.0) /. float_of_int (1 lsl 48)

let exp_sample st ~mean = -.mean *. log (lcg_unit st)

(* ------------------------------------------------------------------ *)
(* Percentiles over float samples                                     *)
(* ------------------------------------------------------------------ *)

let percentile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* ------------------------------------------------------------------ *)
(* Open-loop queue model                                              *)
(* ------------------------------------------------------------------ *)

type ol_row = {
  ol_rho : float;
  ol_offered : int;
  ol_accepted : int;
  ol_shed : int;
  ol_p50 : float;
  ol_p95 : float;
  ol_p99 : float;
  ol_max : float;
}

(* FCFS over [d] servers with a hard cap on requests in system:
   arrivals are Poisson (rate ρ·d/mean-service), service times are
   drawn from the measured distribution.  Everything is simulated
   cycles; nothing depends on the host. *)
let open_loop_rung ~seed ~d ~cap ~rho ~(service : int array) ~arrivals : ol_row
    =
  let n_svc = Array.length service in
  let mean_service =
    float_of_int (Array.fold_left ( + ) 0 service) /. float_of_int n_svc
  in
  let mean_interarrival = mean_service /. (float_of_int d *. rho) in
  let st = ref seed in
  let free_at = Array.make d 0.0 in
  let in_system = ref [] in
  let latencies = ref [] in
  let shed = ref 0 in
  let t = ref 0.0 in
  for _ = 1 to arrivals do
    t := !t +. exp_sample st ~mean:mean_interarrival;
    let svc = float_of_int service.(lcg_next st mod n_svc) in
    in_system := List.filter (fun fin -> fin > !t) !in_system;
    if List.length !in_system >= cap then incr shed
    else begin
      (* earliest-free server, FCFS *)
      let k = ref 0 in
      Array.iteri (fun i f -> if f < free_at.(!k) then k := i) free_at;
      let start = Stdlib.max !t free_at.(!k) in
      let finish = start +. svc in
      free_at.(!k) <- finish;
      in_system := finish :: !in_system;
      latencies := (finish -. !t) :: !latencies
    end
  done;
  let lat = Array.of_list !latencies in
  {
    ol_rho = rho;
    ol_offered = arrivals;
    ol_accepted = Array.length lat;
    ol_shed = !shed;
    ol_p50 = percentile lat 50.0;
    ol_p95 = percentile lat 95.0;
    ol_p99 = percentile lat 99.0;
    ol_max = Array.fold_left Stdlib.max 0.0 lat;
  }

(* ------------------------------------------------------------------ *)
(* The sweep                                                          *)
(* ------------------------------------------------------------------ *)

let run { Sweep.quick; _ } =
  let wls =
    List.map
      (fun n -> Workload.serving_variant (Option.get (Suite.by_name n)))
      (mix_names ~quick)
  in
  pr "\n=== Serving sweep (%s mode; mix: %s) ===\n"
    (if quick then "quick" else "full")
    (String.concat "," (mix_names ~quick));
  let make_requests = Sweep.request_maker wls in
  let default_opts = { Rio.Options.default with max_cycles = max_int / 2 } in
  let boots = Sweep.pool_boots ~opts:default_opts wls in

  (* ---------------- 1. closed loop, pre-warmed ---------------- *)
  let d = closed_domains ~quick in
  let n = closed_requests ~quick in
  let pool =
    Rio.Pool.create
      ~cfg:
        {
          Rio.Options.default_pool with
          domains = d;
          prewarm = true;
        }
      ~boots ()
  in
  let boot_snap = Rio.Pool.stats pool in
  pr "closed loop: %d domains, %d requests, %d instances pre-warmed at boot\n%!"
    d n boot_snap.Rio.Pool.snap_prewarm_boots;
  (* warm pass: fills trace caches (pre-warming builds instances, the
     first requests still build fragments) *)
  List.iter (Sweep.submit_exn pool) (make_requests ~seed_base:10_000 n);
  Sweep.check_pass "closed warm" (Rio.Pool.drain pool);
  let warm_snap = Rio.Pool.stats pool in
  Rio.Pool.reset_counters pool;
  List.iter (Sweep.submit_exn pool) (make_requests ~seed_base:0 n);
  let results = Rio.Pool.drain pool in
  Sweep.check_pass "closed measured" results;
  let meas_snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  ignore results;
  (* service-time measurement: the same request list through a
     single-domain pre-warmed pool.  One domain means one worker claims
     every request, so which request meets which warm instance — and
     therefore every res_cycles sample — is deterministic; the
     multi-domain pool above keeps the cold-boot/divergence gates, but
     its per-request cycles shift run-to-run with which worker claims
     which request, which would make the open-loop p99 gate flaky. *)
  let mpool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 1; prewarm = true }
      ~boots ()
  in
  List.iter (Sweep.submit_exn mpool) (make_requests ~seed_base:10_000 n);
  Sweep.check_pass "service warm" (Rio.Pool.drain mpool);
  List.iter (Sweep.submit_exn mpool) (make_requests ~seed_base:0 n);
  let mresults = Rio.Pool.drain mpool in
  Sweep.check_pass "service measured" mresults;
  Rio.Pool.shutdown mpool;
  let service =
    Array.of_list (List.map (fun r -> r.Rio.Pool.res_cycles) mresults)
  in
  let servicef = Array.map float_of_int service in
  let mean_service =
    float_of_int (Array.fold_left ( + ) 0 service)
    /. float_of_int (Array.length service)
  in
  let max_service = Array.fold_left Stdlib.max 0 service in
  let closed_cold =
    warm_snap.Rio.Pool.snap_cold_boots + meas_snap.Rio.Pool.snap_cold_boots
  in
  pr
    "closed loop: cold boots %d (gate 0), batch hits %d, service cycles \
     p50 %.0f p99 %.0f mean %.0f\n%!"
    closed_cold meas_snap.Rio.Pool.snap_batch_hits
    (percentile servicef 50.0) (percentile servicef 99.0) mean_service;

  (* ---------------- 2. open loop, deterministic model ---------------- *)
  let arrivals = open_arrivals ~quick in
  pr "\nopen loop: %d Poisson arrivals per rung over a %d-server model, \
      cap %d\n" arrivals d model_cap;
  pr "%8s %9s %9s %7s %12s %12s %12s\n" "rho" "offered" "accepted" "shed"
    "p50-cyc" "p99-cyc" "max-cyc";
  let ol_rows =
    List.mapi
      (fun i rho ->
        let row =
          open_loop_rung ~seed:(0x5eed + i) ~d ~cap:model_cap ~rho ~service
            ~arrivals
        in
        pr "%8.2f %9d %9d %7d %12.0f %12.0f %12.0f\n%!" row.ol_rho
          row.ol_offered row.ol_accepted row.ol_shed row.ol_p50 row.ol_p99
          row.ol_max;
        row)
      (rho_ladder ~quick)
  in
  let target = List.find (fun r -> r.ol_rho = 0.8) ol_rows in
  let saturated = List.nth ol_rows (List.length ol_rows - 1) in
  let p99_budget = 20.0 *. mean_service in
  let accepted_bound = float_of_int (model_cap * max_service) in
  let subcritical_shed =
    List.fold_left
      (fun a r -> if r.ol_rho <= 0.8 then a + r.ol_shed else a)
      0 ol_rows
  in
  pr
    "target rung rho=0.80: p99 %.0f cycles (budget %.0f = 20x mean service)\n"
    target.ol_p99 p99_budget;
  pr
    "saturated rung rho=%.2f: %d/%d shed, accepted p99 %.0f (bound %.3g = \
     cap x max service)\n%!"
    saturated.ol_rho saturated.ol_shed saturated.ol_offered saturated.ol_p99
    accepted_bound;

  (* ---------------- 3. live socket smoke ---------------- *)
  (* tiny accept queue: the burst must draw typed sheds over the wire *)
  let sock_path = Filename.concat (Sys.getcwd ()) "servesweep.sock" in
  let smoke_aq = 2 in
  let smoke_n = if quick then 16 else 24 in
  let spool =
    Rio.Pool.create
      ~cfg:
        {
          Rio.Options.default_pool with
          domains = 2;
          prewarm = true;
          accept_queue = smoke_aq;
        }
      ~boots ()
  in
  let addr = Rio.Server.Unix_addr sock_path in
  let lfd = Rio.Server.listen addr in
  let srv = Domain.spawn (fun () -> Rio.Server.run spool [ lfd ]) in
  let reqs = make_requests ~seed_base:30_000 smoke_n in
  let cfd = Rio.Server.connect addr in
  let responses =
    Rio.Server.client_run cfd
      (List.map
         (fun (r : Rio.Pool.request) ->
           (r.Rio.Pool.req_key, r.req_seed, r.req_input, r.req_expect))
         reqs)
  in
  Rio.Wire.send_msg cfd Rio.Wire.Quit;
  Unix.close cfd;
  let sstats = Domain.join srv in
  Unix.close lfd;
  if Sys.file_exists sock_path then Sys.remove sock_path;
  Rio.Pool.drain spool |> ignore;
  let ssnap = Rio.Pool.stats spool in
  Rio.Pool.shutdown spool;
  let count st =
    List.length (List.filter (fun r -> r.Rio.Wire.r_status = st) responses)
  in
  let smoke_ok = count Rio.Wire.St_ok in
  let smoke_shed = count Rio.Wire.St_shed in
  let smoke_failed = count Rio.Wire.St_failed in
  let smoke_mismatch = ref 0 in
  List.iter
    (fun (r : Rio.Wire.response) ->
      if r.Rio.Wire.r_status = Rio.Wire.St_ok then begin
        let expect =
          (List.nth reqs r.Rio.Wire.r_id).Rio.Pool.req_expect
        in
        if not (Sweep.tally (Some r.Rio.Wire.r_output = expect)) then begin
          incr smoke_mismatch;
          pr "!! socket: response %d output differs from native\n%!"
            r.Rio.Wire.r_id
        end
      end)
    responses;
  pr
    "\nsocket smoke (%s, accept_queue %d): %d requests -> %d ok, %d shed, \
     %d failed; pool shed %d; server: %d conns, %d responses\n%!"
    ("unix:" ^ sock_path) smoke_aq smoke_n smoke_ok smoke_shed smoke_failed
    ssnap.Rio.Pool.snap_shed sstats.Rio.Server.sv_accepted
    sstats.Rio.Server.sv_responses;

  (* ---------------- JSON + gates ---------------- *)
  let open Rio.Json in
  ( [ ("mix", Arr (List.map (fun n -> Str n) (mix_names ~quick)));
      ("divergences", Int !Sweep.diverged);
      ( "closed_loop",
        Obj
          [ ("domains", Int d);
            ("requests", Int n);
            ("prewarm_boots", Int boot_snap.Rio.Pool.snap_prewarm_boots);
            ("cold_boots", Int closed_cold);
            ("batch_hits", Int meas_snap.Rio.Pool.snap_batch_hits);
            ("mean_service_cycles", Float mean_service);
            ("p50_service_cycles", Float (percentile servicef 50.0));
            ("p99_service_cycles", Float (percentile servicef 99.0)) ] );
      ( "open_loop",
        Obj
          [ ("servers", Int d);
            ("cap", Int model_cap);
            ("arrivals_per_rung", Int arrivals);
            ("p99_budget_cycles", Float p99_budget);
            ( "rungs",
              Arr
                (List.map
                   (fun r ->
                     Obj
                       [ ("rho", Float r.ol_rho);
                         ("offered", Int r.ol_offered);
                         ("accepted", Int r.ol_accepted);
                         ("shed", Int r.ol_shed);
                         ("p50_cycles", Float r.ol_p50);
                         ("p95_cycles", Float r.ol_p95);
                         ("p99_cycles", Float r.ol_p99);
                         ("max_cycles", Float r.ol_max) ])
                   ol_rows) ) ] );
      ( "socket",
        Obj
          [ ("requests", Int smoke_n);
            ("accept_queue", Int smoke_aq);
            ("ok", Int smoke_ok);
            ("shed", Int smoke_shed);
            ("failed", Int smoke_failed);
            ("output_mismatches", Int !smoke_mismatch);
            ("connections", Int sstats.Rio.Server.sv_accepted);
            ("responses", Int sstats.Rio.Server.sv_responses) ] );
    ],
    [
      Sweep.at_most "closed-loop cold boots after pre-warming" ~bound:0.0
        (float_of_int closed_cold);
      Sweep.at_most "open-loop shed at rho <= 0.8" ~bound:0.0
        (float_of_int subcritical_shed);
      Sweep.at_most "open-loop p99 cycles at rho = 0.8" ~bound:p99_budget
        target.ol_p99;
      Sweep.above "open-loop shed past saturation" ~bound:0.0
        (float_of_int saturated.ol_shed);
      Sweep.at_most "accepted p99 cycles past saturation" ~bound:accepted_bound
        saturated.ol_p99;
      Sweep.above "socket burst typed sheds" ~bound:0.0 (float_of_int smoke_shed);
      Sweep.above "socket burst successes" ~bound:0.0 (float_of_int smoke_ok);
      Sweep.at_most "socket burst failed responses" ~bound:0.0
        (float_of_int smoke_failed);
    ] )

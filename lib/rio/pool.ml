(** Supervised domain-parallel serving pool (DESIGN.md §6.5–6.6).

    The pool owns N worker domains.  Each worker keeps {e warm}
    long-lived {!Engine.t} instances, one per workload key: the code
    cache, fragment index, and traces built while serving one request
    survive into the next, so steady-state requests skip almost all
    block building.  Instances never migrate between domains.

    Requests wait in one run queue, in arrival order.  An idle worker
    claims the front request, except that the batcher lets a request
    for the key the worker served last jump the line from within the
    first [batch_window] queued requests, so the instance that is hot
    right now stays hot.  A front request can be passed over at most
    [batch_window] times before it is claimed.

    On top of that sits the fleet-level recovery machinery (§6.6):

    - every request runs inside an {e exception barrier}: an uncaught
      raise becomes a {!Engine.Crashed} result instead of a dead
      domain;
    - a {e supervisor} domain respawns workers that die anyway (chaos
      kills, pool bugs), requeueing the request they died serving;
    - a per-request {e watchdog} ({!Engine.set_watchdog}) enforces a
      simulated-cycle budget and a wall-clock bound, preempting the
      engine at the next fragment boundary with
      {!Engine.Deadline_exceeded};
    - failed requests climb a bounded {e retry ladder} on the worker
      that served them — retry on the warm instance after reset, then
      retry on cold-booted instances — before failing for good;
    - a per-workload-key {e quarantine} circuit breaker opens after K
      consecutive final failures: new submits for the key are rejected
      until a single probe request is let through and succeeds.

    A fresh instance starts from one source only: its key's saved
    cache image when the boot carries one ([boot_cache]),
    otherwise cold (DESIGN.md §6.8).

    The queue and all counters sit behind one pool mutex: requests are
    coarse (each runs a whole workload to completion, millions of
    simulated cycles), so queue operations are a vanishing fraction of
    the work and a single lock keeps the invariants easy to audit.  The
    two image-load counters are atomics instead, because a cold retry
    boots its instance with no lock held.  Lock-ordering discipline:
    the pool mutex is never held while a request executes. *)

(* ------------------------------------------------------------------ *)
(* The run queue                                                      *)
(* ------------------------------------------------------------------ *)

module Deque = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int;
    mutable len : int;
  }

  let create ~capacity () =
    if capacity < 1 then invalid_arg "Deque.create: capacity must be >= 1";
    { buf = Array.make capacity None; head = 0; len = 0 }

  let grow d =
    let n = Array.length d.buf in
    let buf = Array.make (2 * n) None in
    for i = 0 to d.len - 1 do
      buf.(i) <- d.buf.((d.head + i) mod n)
    done;
    d.buf <- buf;
    d.head <- 0

  let push_back d x =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- Some x;
    d.len <- d.len + 1

  (* requeued requests jump the line so a crashed request's latency
     does not also pay for the queue behind it *)
  let push_front d x =
    if d.len = Array.length d.buf then grow d;
    d.head <- (d.head - 1 + Array.length d.buf) mod Array.length d.buf;
    d.buf.(d.head) <- Some x;
    d.len <- d.len + 1

  (* oldest request, preserving arrival order *)
  let pop_front d =
    if d.len = 0 then None
    else begin
      let x = d.buf.(d.head) in
      d.buf.(d.head) <- None;
      d.head <- (d.head + 1) mod Array.length d.buf;
      d.len <- d.len - 1;
      x
    end

  (* logical index [i] from the front; [None] out of range *)
  let nth d i =
    if i < 0 || i >= d.len then None
    else d.buf.((d.head + i) mod Array.length d.buf)

  (* remove the element at logical index [i], closing the gap by
     shifting whichever side is shorter; the batcher uses this to pull
     a same-key request out of the middle of the queue *)
  let remove_at d i =
    if i < 0 || i >= d.len then invalid_arg "Deque.remove_at";
    let n = Array.length d.buf in
    let x = d.buf.((d.head + i) mod n) in
    if i < d.len - 1 - i then begin
      for k = i downto 1 do
        d.buf.((d.head + k) mod n) <- d.buf.((d.head + k - 1) mod n)
      done;
      d.buf.(d.head) <- None;
      d.head <- (d.head + 1) mod n
    end
    else begin
      for k = i to d.len - 2 do
        d.buf.((d.head + k) mod n) <- d.buf.((d.head + k + 1) mod n)
      done;
      d.buf.((d.head + d.len - 1) mod n) <- None
    end;
    d.len <- d.len - 1;
    x

  (* first logical index within [window] of the front whose element
     satisfies [pred] *)
  let find_front d ~window pred =
    let n = min d.len window in
    let rec go i =
      if i >= n then None
      else
        match nth d i with
        | Some x when pred x -> Some i
        | _ -> go (i + 1)
    in
    go 0
end

(* ------------------------------------------------------------------ *)
(* Requests and results                                               *)
(* ------------------------------------------------------------------ *)

type boot = {
  boot_machine : unit -> Vm.Machine.t;
      (** create a machine with the program image cold-loaded
          (see {!Asm.Image.load_cold}); no thread yet *)
  boot_entry : int;
  boot_stack_top : int;
  boot_restore : Vm.Machine.t -> zeroed:(int * int) list -> (int * int) list;
      (** re-blit image slices over just-zeroed pages
          (see {!Asm.Image.restore}) *)
  boot_opts : Options.t;
  boot_client : unit -> Types.client;
      (** fresh client per instance: client state must be per-domain *)
  boot_image_digest : int;
      (** {!Asm.Image.digest} of the program: stamps saved cache images
          and validates loaded ones *)
  boot_cache : string option;
      (** path of a saved cache image ({!Persist}) to warm-boot every
          new instance of this key from; a refused load (different
          program or options, corruption, truncation) falls back to a
          plain cold boot *)
}

type request = {
  req_id : int;            (** caller-chosen correlation id, echoed in the result *)
  req_key : string;        (** workload key; selects the boot and the warm instance *)
  req_seed : int;
  req_input : int list;    (** full input stream for this request *)
  req_expect : int list option;  (** expected output (native reference), if known *)
}

type result = {
  res_id : int;            (** the request's [req_id] *)
  res_key : string;
  res_seed : int;
  res_worker : int;        (** domain that executed the final attempt *)
  res_warm : bool;         (** final attempt served by an already-warm instance *)
  res_attempts : int;      (** total attempts, including the successful/last one *)
  res_output : int list;
  res_reason : Engine.stop_reason;
  res_cycles : int;        (** simulated cycles of the final attempt *)
  res_insns : int;
  res_blocks_built : int;  (** basic blocks built during the final attempt *)
  res_secs : float;        (** host wall-clock seconds of the final attempt *)
  res_ok : bool;           (** exited normally and matched [req_expect] *)
}

(** Why {!submit} or {!try_submit} refused a request. *)
type reject =
  | Unknown_key of string  (** no boot registered for this workload key *)
  | Quarantined of string  (** the key's circuit breaker is open and a
                               probe is already in flight *)
  | Overloaded of int * int
      (** admission bound hit: [(admitted, accept_queue)] — the
          non-blocking {!try_submit} path sheds instead of queueing
          without bound *)
  | Pool_stopping

let reject_to_string = function
  | Unknown_key k -> Printf.sprintf "no boot registered for key %S" k
  | Quarantined k -> Printf.sprintf "workload key %S is quarantined" k
  | Overloaded (n, cap) ->
      Printf.sprintf "pool overloaded: %d requests admitted (bound %d)" n cap
  | Pool_stopping -> "pool is shut down"

type snapshot = {
  snap_domains : int;
  snap_submitted : int;
  snap_completed : int;
  snap_steals : int;
      (** always 0: there is no work stealing; kept while [perf/] reads it *)
  snap_warm_hits : int;
  snap_cold_boots : int;
  snap_busy_cycles : int array;  (** per-worker simulated cycles served *)
  snap_stats : Stats.t;          (** merge over all live warm instances *)
  snap_serve_lat : Stats.hist;   (** per-request service latency, sim cycles *)
  (* --- supervision (DESIGN.md §6.6) --- *)
  snap_crashes : int;            (** attempts that ended in [Crashed] *)
  snap_deadline_hits : int;      (** attempts preempted by the watchdog *)
  snap_retries : int;            (** retry-ladder activations *)
  snap_requeues : int;           (** jobs the supervisor pushed back onto
                                     the queue after a worker died *)
  snap_respawns : int;           (** worker domains respawned by the supervisor *)
  snap_reloads : int;            (** {!drain_and_reload} cycles completed *)
  snap_rejected_unknown : int;
  snap_rejected_quarantined : int;
  snap_quarantine_opens : int;   (** circuit breakers opened *)
  snap_quarantine_closes : int;  (** breakers closed by a successful request *)
  snap_probes : int;             (** probe requests admitted through open breakers *)
  snap_quarantined_now : int;    (** keys whose breaker is open right now *)
  (* --- persistent cache images (DESIGN.md §6.8) --- *)
  snap_cache_loads : int;        (** instances warm-booted from a saved image *)
  snap_cache_refused : int;      (** image loads refused (fell back to cold) *)
  (* --- serving front-end (DESIGN.md §6.10) --- *)
  snap_shed : int;               (** {!try_submit} rejections for overload *)
  snap_batch_hits : int;         (** same-key claims by the batcher *)
  snap_prewarm_boots : int;      (** instances built eagerly at boot/reload *)
}

(* ------------------------------------------------------------------ *)

(* A queued unit of work: the request plus its position on the retry
   ladder.  Mutated only under the pool mutex or by the worker
   currently serving it. *)
type job = {
  jr : request;
  mutable j_attempt : int;      (* 0 on first service *)
  mutable j_force_cold : bool;  (* drop the warm instance before serving *)
  mutable j_passed : int;       (* batcher picks that skipped this job
                                   while it was at the front *)
}

type worker = {
  w_id : int;
  mutable w_busy_cycles : int;          (* under pool mutex *)
  mutable w_current : job option;       (* under pool mutex; what the
                                           domain dies holding *)
  mutable w_last_key : string option;   (* under pool mutex: key of the
                                           last claimed job, the
                                           batcher's locality hint *)
  w_chaos : Faultinject.chaos_state option;
      (* private per-worker chaos stream; touched only by the owning
         domain while serving *)
  w_warm : (string, Engine.t) Hashtbl.t;
      (* touched only by the owning domain while serving; readable by
         others only when the pool is quiescent (after [drain]) *)
}

(* Per-key circuit breaker (under pool mutex). *)
type quar = {
  mutable q_fails : int;   (* consecutive final failures *)
  mutable q_open : bool;
  mutable q_probe : bool;  (* a probe request is in flight *)
}

type t = {
  mu : Mutex.t;
  work_cv : Condition.t;    (* workers: new work or shutdown *)
  space_cv : Condition.t;   (* submitters: in-flight fell below cap *)
  done_cv : Condition.t;    (* drainers/reloaders: completed caught up *)
  sup_cv : Condition.t;     (* supervisor: a worker domain died *)
  workers : worker array;
  queue : job Deque.t;            (* admitted, unclaimed jobs *)
  boots : (string * boot) list;   (* immutable after create *)
  cfg : Options.pool_opts;
  mutable submitted : int;
  mutable completed : int;
  mutable active : int;           (* claimed-but-unfinished jobs *)
  mutable warm_hits : int;
  mutable cold_boots : int;
  mutable crashes : int;
  mutable deadline_hits : int;
  mutable retries : int;
  mutable requeues : int;
  mutable respawns : int;
  mutable reloads : int;
  mutable rejected_unknown : int;
  mutable rejected_quarantined : int;
  mutable quarantine_opens : int;
  mutable quarantine_closes : int;
  mutable probes : int;
  mutable shed : int;             (* try_submit overload rejections *)
  mutable batch_hits : int;       (* claims where the batcher reordered *)
  mutable prewarm_boots : int;
  mutable serve_lat : Stats.hist; (* final attempts' simulated cycles *)
  quar : (string, quar) Hashtbl.t;
  cache_loads : int Atomic.t;     (* image loads; bumped by whichever
                                     domain boots the instance *)
  cache_refused : int Atomic.t;
  mutable results : result list;  (* reversed completion order *)
  mutable notify : unit -> unit;  (* completion hook: results went
                                     from empty to non-empty *)
  mutable stopping : bool;
  mutable reloading : bool;       (* pause job claims while reloading *)
  mutable dead : worker list;     (* carcasses awaiting the supervisor *)
  mutable handles : unit Domain.t list;  (* every domain ever spawned *)
  mutable sup_handle : unit Domain.t option;
}

let quar_state pool key : quar =
  match Hashtbl.find_opt pool.quar key with
  | Some q -> q
  | None ->
      let q = { q_fails = 0; q_open = false; q_probe = false } in
      Hashtbl.replace pool.quar key q;
      q

(* Broadcast the drain/reload condition when the relevant counter
   caught up; call with the pool mutex held. *)
let note_progress pool =
  if pool.completed = pool.submitted then Condition.broadcast pool.done_cv;
  if pool.reloading && pool.active = 0 then Condition.broadcast pool.done_cv

(* ------------------------------------------------------------------ *)
(* Booting an instance                                                *)
(* ------------------------------------------------------------------ *)

(* Build a fresh instance of [key] and install it in [w]'s warm table:
   a cold-loaded machine and engine, warm-booted from the key's saved
   image when the boot carries one (a refusal is counted and the
   instance serves cold).  Every instance the pool ever builds comes
   from here — pre-warm, reload rebuild, cold retry and respawn alike.
   Caller owns [w]'s warm table; takes no lock. *)
let boot_instance pool (w : worker) key (boot : boot) : Engine.t =
  let rt =
    Engine.create ~opts:boot.boot_opts ~client:(boot.boot_client ())
      (boot.boot_machine ())
  in
  (match boot.boot_cache with
  | None -> ()
  | Some path -> (
      match Engine.load_image rt ~image_digest:boot.boot_image_digest ~path with
      | Ok _ -> Atomic.incr pool.cache_loads
      | Error _ -> Atomic.incr pool.cache_refused));
  Hashtbl.replace w.w_warm key rt;
  rt

(* Build every key's instance on [w] before it serves anything
   ([prewarm] at create, [drain_and_reload ~rebuild]).  Call before the
   domains exist or with the pool mutex held and service quiescent. *)
let prewarm_worker pool (w : worker) : unit =
  List.iter
    (fun (key, boot) ->
      ignore (boot_instance pool w key boot);
      pool.prewarm_boots <- pool.prewarm_boots + 1)
    pool.boots

(* ------------------------------------------------------------------ *)
(* Serving one attempt (no pool lock held)                            *)
(* ------------------------------------------------------------------ *)

let serve pool (w : worker) (j : job) : result =
  let r = j.jr in
  let cfg = pool.cfg in
  let boot =
    (* submit validates keys; this is a backstop for requests forged
       around it, and the barrier turns the raise into a Crashed
       result rather than a dead domain *)
    match List.assoc_opt r.req_key pool.boots with
    | Some b -> b
    | None -> invalid_arg ("Pool: no boot registered for key " ^ r.req_key)
  in
  let t0 = Unix.gettimeofday () in
  if j.j_force_cold then begin
    Hashtbl.remove w.w_warm r.req_key;
    j.j_force_cold <- false
  end;
  (* chaos roll for this attempt.  The last ladder rung is
     chaos-immune, so a request under retry always converges: chaos
     tests the recovery machinery, not the application's luck *)
  let chaos =
    match w.w_chaos with
    | Some cs when j.j_attempt < max 1 cfg.Options.retries ->
        Faultinject.chaos_tick cs
    | _ -> None
  in
  (match chaos with
   | Some Faultinject.Chaos_stall ->
       (* stalled worker: burn host time before doing any work; with a
          wall-clock deadline armed the watchdog preempts the request
          at its first safe point *)
       Unix.sleepf
         (match cfg.Options.deadline_secs with
          | Some s -> s +. 0.01
          | None -> 0.02)
   | _ -> ());
  let warm, rt =
    match Hashtbl.find_opt w.w_warm r.req_key with
    | Some rt ->
        Engine.reset_for_reuse rt ~restore:boot.boot_restore;
        (true, rt)
    | None -> (false, boot_instance pool w r.req_key boot)
  in
  let m = Engine.machine rt in
  (match chaos with
   | Some Faultinject.Chaos_poison ->
       (* flip one application-image byte near the entry point: the
          request diverges or faults, and the ladder must heal it (the
          write marks its page touched, so a warm reset restores it) *)
       let cs = Option.get w.w_chaos in
       let addr =
         min (Types.tls_base - 1)
           (boot.boot_entry + Faultinject.chaos_rand cs 512)
       in
       let mem = Vm.Machine.mem m in
       let old = Vm.Memory.read_u8 mem addr in
       Vm.Memory.write_u8 mem addr (old lxor (1 + Faultinject.chaos_rand cs 255));
       Vm.Machine.invalidate_icache m ~addr ~len:1
   | Some Faultinject.Chaos_hook_storm ->
       (* the next client hook raises after doing its work; the guard's
          snapshot/quarantine machinery absorbs it *)
       rt.Types.fi_hook_pending <- true
   | _ -> ());
  ignore
    (Vm.Machine.add_thread m ~entry:boot.boot_entry
       ~stack_top:boot.boot_stack_top);
  Vm.Machine.set_input m r.req_input;
  let c0 = Vm.Machine.cycles m in
  let crash_at =
    match chaos with
    | Some Faultinject.Chaos_crash ->
        let cs = Option.get w.w_chaos in
        Some (c0 + 1_000 + Faultinject.chaos_rand cs 100_000)
    | _ -> None
  in
  let cycle_limit = Option.map (fun b -> c0 + b) cfg.Options.deadline_cycles in
  let wall_limit = Option.map (fun s -> t0 +. s) cfg.Options.deadline_secs in
  (match (crash_at, cycle_limit, wall_limit) with
   | None, None, None -> Engine.set_watchdog rt None
   | _ ->
       Engine.set_watchdog rt
         (Some
            (fun () ->
              (match crash_at with
               | Some c when Vm.Machine.cycles m >= c ->
                   (* the injected domain death: punches through the
                      barrier mid-request, at a dispatcher safe point *)
                   raise Faultinject.Chaos_domain_kill
               | _ -> ());
              (match cycle_limit with
               | Some c -> Vm.Machine.cycles m >= c
               | None -> false)
              ||
              match wall_limit with
              | Some t -> Unix.gettimeofday () > t
              | None -> false)));
  let b0 = (Engine.stats rt).Stats.blocks_built in
  let o = Engine.run rt in
  Engine.set_watchdog rt None;
  let output = Vm.Machine.output m in
  let ok =
    o.Engine.reason = Engine.All_exited
    && match r.req_expect with None -> true | Some e -> output = e
  in
  {
    res_id = r.req_id;
    res_key = r.req_key;
    res_seed = r.req_seed;
    res_worker = w.w_id;
    res_warm = warm;
    res_attempts = j.j_attempt + 1;
    res_output = output;
    res_reason = o.Engine.reason;
    res_cycles = o.Engine.cycles;
    res_insns = o.Engine.insns;
    res_blocks_built = (Engine.stats rt).Stats.blocks_built - b0;
    res_secs = Unix.gettimeofday () -. t0;
    res_ok = ok;
  }

(* The exception barrier: any raise out of [serve] — engine bug,
   unregistered key, client escape — becomes a [Crashed] result instead
   of a dead worker domain.  {!Faultinject.Chaos_domain_kill} is the
   one deliberate exception: it exists to kill the domain so the
   supervisor path stays honest. *)
let serve_barrier pool (w : worker) (j : job) : result =
  try serve pool w j with
  | Faultinject.Chaos_domain_kill as e -> raise e
  | exn ->
      Hashtbl.remove w.w_warm j.jr.req_key;
      {
        res_id = j.jr.req_id;
        res_key = j.jr.req_key;
        res_seed = j.jr.req_seed;
        res_worker = w.w_id;
        res_warm = false;
        res_attempts = j.j_attempt + 1;
        res_output = [];
        res_reason = Engine.Crashed (Printexc.to_string exn);
        res_cycles = 0;
        res_insns = 0;
        res_blocks_built = 0;
        res_secs = 0.0;
        res_ok = false;
      }

(* Record a request's final outcome and update its key's circuit
   breaker; call with the pool mutex held. *)
let record_final pool (w : worker) (j : job) (res : result) : unit =
  w.w_current <- None;
  pool.active <- pool.active - 1;
  pool.completed <- pool.completed + 1;
  if res.res_warm then pool.warm_hits <- pool.warm_hits + 1
  else pool.cold_boots <- pool.cold_boots + 1;
  if pool.results = [] then pool.notify ();
  pool.results <- res :: pool.results;
  let q = quar_state pool j.jr.req_key in
  if res.res_ok then begin
    if q.q_open then begin
      q.q_open <- false;
      pool.quarantine_closes <- pool.quarantine_closes + 1
    end;
    q.q_fails <- 0;
    q.q_probe <- false
  end
  else begin
    q.q_fails <- q.q_fails + 1;
    q.q_probe <- false;
    if (not q.q_open) && q.q_fails >= pool.cfg.Options.quarantine_threshold
    then begin
      q.q_open <- true;
      pool.quarantine_opens <- pool.quarantine_opens + 1
    end
  end;
  Stats.hist_add pool.serve_lat res.res_cycles;
  Condition.signal pool.space_cv;
  note_progress pool

(* ------------------------------------------------------------------ *)
(* Worker loop, retry ladder, supervisor                              *)
(* ------------------------------------------------------------------ *)

(* Serve [j] to a final result on [w], climbing the retry ladder on
   failures: rung 1 retries on the warm instance (reset first), rungs 2
   and up cold-boot first.  The ladder is bounded by [cfg.retries];
   rungs past the configured depth simply do not exist. *)
let rec serve_with_retries pool (w : worker) (j : job) : unit =
  let res = serve_barrier pool w j in
  Mutex.lock pool.mu;
  (match res.res_reason with
   | Engine.Crashed _ -> pool.crashes <- pool.crashes + 1
   | Engine.Deadline_exceeded -> pool.deadline_hits <- pool.deadline_hits + 1
   | _ -> ());
  w.w_busy_cycles <- w.w_busy_cycles + res.res_cycles;
  if res.res_ok || j.j_attempt >= pool.cfg.Options.retries then begin
    (* final: a request that did not exit cleanly leaves instance state
       we no longer trust; drop it so the next request cold-boots *)
    if res.res_reason <> Engine.All_exited then
      Hashtbl.remove w.w_warm j.jr.req_key;
    record_final pool w j res;
    Mutex.unlock pool.mu
  end
  else begin
    pool.retries <- pool.retries + 1;
    j.j_attempt <- j.j_attempt + 1;
    if j.j_attempt >= 2 then j.j_force_cold <- true;
    Mutex.unlock pool.mu;
    serve_with_retries pool w j
  end

(* How many requests from the queue's front the batcher scans for the
   worker's last key, and how many times it may pass over the front
   request. *)
let batch_window = 8

(* Take the next job off the queue.  Within [batch_window] of the
   front, a request for the key this worker served last jumps the line,
   so the instance that is hot right now stays hot.  Each such pick
   counts against the front request, and once it has been passed over
   [batch_window] times it is taken next, so no request starves.  Call
   with the pool mutex held. *)
let claim pool (w : worker) : job option =
  let q = pool.queue in
  match (w.w_last_key, Deque.nth q 0) with
  | Some key, Some front when front.j_passed < batch_window -> (
      match Deque.find_front q ~window:batch_window (fun j -> j.jr.req_key = key) with
      | Some i when i > 0 ->
          front.j_passed <- front.j_passed + 1;
          pool.batch_hits <- pool.batch_hits + 1;
          Deque.remove_at q i
      | _ -> Deque.pop_front q)
  | _ -> Deque.pop_front q

let rec worker_loop pool (w : worker) : unit =
  Mutex.lock pool.mu;
  match if pool.reloading then None else claim pool w with
  | Some j ->
      w.w_current <- Some j;
      w.w_last_key <- Some j.jr.req_key;
      pool.active <- pool.active + 1;
      Mutex.unlock pool.mu;
      serve_with_retries pool w j;
      worker_loop pool w
  | None ->
      if pool.stopping then Mutex.unlock pool.mu
      else begin
        Condition.wait pool.work_cv pool.mu;
        Mutex.unlock pool.mu;
        worker_loop pool w
      end

(* The body every worker domain runs.  If anything escapes the loop —
   a chaos kill, or a bug in the pool itself — the domain is dying:
   hand the carcass to the supervisor and let it respawn us. *)
let worker_body pool (w : worker) : unit =
  try worker_loop pool w
  with _ ->
    Mutex.lock pool.mu;
    pool.dead <- w :: pool.dead;
    Condition.signal pool.sup_cv;
    Mutex.unlock pool.mu

(* The supervisor: bury dead workers, requeue the request each died
   serving at the front of the queue (its warm instance died mid-run
   and cannot be trusted), and spawn a replacement domain over the same
   worker record, whose warm table survives. *)
let rec supervisor_loop pool : unit =
  Mutex.lock pool.mu;
  while pool.dead = [] && not pool.stopping do
    Condition.wait pool.sup_cv pool.mu
  done;
  match pool.dead with
  | [] -> Mutex.unlock pool.mu (* stopping, nothing left to bury *)
  | w :: rest ->
      pool.dead <- rest;
      (match w.w_current with
       | Some j ->
           Hashtbl.remove w.w_warm j.jr.req_key;
           j.j_attempt <- j.j_attempt + 1;
           j.j_force_cold <- true;
           Deque.push_front pool.queue j;
           w.w_current <- None;
           pool.active <- pool.active - 1;
           pool.requeues <- pool.requeues + 1;
           note_progress pool
       | None -> ());
      pool.respawns <- pool.respawns + 1;
      let h = Domain.spawn (fun () -> worker_body pool w) in
      pool.handles <- h :: pool.handles;
      Condition.broadcast pool.work_cv;
      Mutex.unlock pool.mu;
      supervisor_loop pool

(* ------------------------------------------------------------------ *)
(* Public API                                                         *)
(* ------------------------------------------------------------------ *)

let create ?(cfg = Options.default_pool) ?chaos
    ~(boots : (string * boot) list) () : t =
  Options.validate_pool_exn cfg;
  let workers =
    Array.init cfg.Options.domains (fun i ->
        {
          w_id = i;
          w_busy_cycles = 0;
          w_current = None;
          w_last_key = None;
          w_chaos = Option.map (fun co -> Faultinject.chaos_make co ~salt:i) chaos;
          w_warm = Hashtbl.create 8;
        })
  in
  let pool =
    {
      mu = Mutex.create ();
      work_cv = Condition.create ();
      space_cv = Condition.create ();
      done_cv = Condition.create ();
      sup_cv = Condition.create ();
      workers;
      queue = Deque.create ~capacity:16 ();
      boots;
      cfg;
      submitted = 0;
      completed = 0;
      active = 0;
      warm_hits = 0;
      cold_boots = 0;
      crashes = 0;
      deadline_hits = 0;
      retries = 0;
      requeues = 0;
      respawns = 0;
      reloads = 0;
      rejected_unknown = 0;
      rejected_quarantined = 0;
      quarantine_opens = 0;
      quarantine_closes = 0;
      probes = 0;
      shed = 0;
      batch_hits = 0;
      prewarm_boots = 0;
      serve_lat = Stats.hist_create ();
      quar = Hashtbl.create 8;
      cache_loads = Atomic.make 0;
      cache_refused = Atomic.make 0;
      results = [];
      notify = ignore;
      stopping = false;
      reloading = false;
      dead = [];
      handles = [];
      sup_handle = None;
    }
  in
  (* pre-warm before any domain exists, so the first request of every
     key on every domain is already warm.  Everything built here
     happens-before Domain.spawn, so the workers see it without
     synchronization. *)
  if cfg.Options.prewarm then Array.iter (prewarm_worker pool) workers;
  pool.handles <-
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> worker_body pool w)) workers);
  pool.sup_handle <- Some (Domain.spawn (fun () -> supervisor_loop pool));
  pool

(* Admission checks shared by {!submit} and {!try_submit}; call with
   the pool mutex held.  [Ok q] hands back the key's breaker state so
   the caller can admit a probe. *)
let admission_check pool (r : request) : (quar, reject) Stdlib.result =
  if pool.stopping then Error Pool_stopping
  else if not (List.mem_assoc r.req_key pool.boots) then begin
    pool.rejected_unknown <- pool.rejected_unknown + 1;
    Error (Unknown_key r.req_key)
  end
  else begin
    let q = quar_state pool r.req_key in
    if q.q_open && q.q_probe then begin
      pool.rejected_quarantined <- pool.rejected_quarantined + 1;
      Error (Quarantined r.req_key)
    end
    else Ok q
  end

(* Enqueue an admitted request at the back of the queue; call with the
   pool mutex held. *)
let enqueue pool (r : request) (q : quar) : unit =
  (* half-open circuit breaker: exactly one probe request is let
     through an open breaker; its outcome closes or re-arms it *)
  if q.q_open then begin
    q.q_probe <- true;
    pool.probes <- pool.probes + 1
  end;
  Deque.push_back pool.queue
    { jr = r; j_attempt = 0; j_force_cold = false; j_passed = 0 };
  pool.submitted <- pool.submitted + 1;
  Condition.broadcast pool.work_cv

let submit pool (r : request) : (unit, reject) Stdlib.result =
  Mutex.lock pool.mu;
  match admission_check pool r with
  | Error e ->
      Mutex.unlock pool.mu;
      Error e
  | Ok q ->
      while pool.submitted - pool.completed >= pool.cfg.Options.max_inflight do
        Condition.wait pool.space_cv pool.mu
      done;
      enqueue pool r q;
      Mutex.unlock pool.mu;
      Ok ()

(** Non-blocking admission for the socket front-end: where {!submit}
    would wait for space, this sheds with [Overloaded] once the number
    of admitted-but-unfinished requests reaches [accept_queue] — the
    caller turns that into backpressure (a typed reject on the wire)
    instead of unbounded queueing. *)
let try_submit pool (r : request) : (unit, reject) Stdlib.result =
  Mutex.lock pool.mu;
  match admission_check pool r with
  | Error e ->
      Mutex.unlock pool.mu;
      Error e
  | Ok q ->
      let admitted = pool.submitted - pool.completed in
      if admitted >= pool.cfg.Options.accept_queue then begin
        pool.shed <- pool.shed + 1;
        Mutex.unlock pool.mu;
        Error (Overloaded (admitted, pool.cfg.Options.accept_queue))
      end
      else begin
        enqueue pool r q;
        Mutex.unlock pool.mu;
        Ok ()
      end

(** Results completed so far, in completion order, without waiting:
    the server's loop pairs this with {!try_submit} to stream responses
    while requests are still in flight. *)
let take_results pool : result list =
  Mutex.lock pool.mu;
  let rs = List.rev pool.results in
  pool.results <- [];
  Mutex.unlock pool.mu;
  rs

(** Install the completion hook; see pool.mli. *)
let set_notify pool (f : unit -> unit) : unit =
  Mutex.lock pool.mu;
  pool.notify <- f;
  Mutex.unlock pool.mu

let drain pool : result list =
  Mutex.lock pool.mu;
  while pool.completed < pool.submitted do
    Condition.wait pool.done_cv pool.mu
  done;
  let rs = List.rev pool.results in
  pool.results <- [];
  Mutex.unlock pool.mu;
  rs

(** Quiesce service (claimed requests finish; queued requests wait),
    drop every warm instance — optionally rebuilding fresh pre-warmed
    ones — reset the quarantine breakers (the poisoned instances they
    were guarding are gone), and resume.  Accepted requests are never
    dropped: anything still queued is served by the reloaded fleet. *)
let drain_and_reload ?(rebuild = false) pool : unit =
  Mutex.lock pool.mu;
  if pool.reloading then begin
    Mutex.unlock pool.mu;
    invalid_arg "Pool.drain_and_reload: reload already in progress"
  end;
  pool.reloading <- true;
  Condition.broadcast pool.work_cv;
  while pool.active > 0 do
    Condition.wait pool.done_cv pool.mu
  done;
  (* serving is quiescent: no claimed job, so no domain touches its
     warm table; the mutex hand-off makes these writes visible to the
     workers when they next take the lock *)
  Array.iter
    (fun w ->
      Hashtbl.reset w.w_warm;
      if rebuild then prewarm_worker pool w)
    pool.workers;
  Hashtbl.reset pool.quar;
  pool.reloads <- pool.reloads + 1;
  pool.reloading <- false;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.mu

(** Zero the throughput counters between measurement passes.  Call only
    when drained (no request in flight). *)
let reset_counters pool : unit =
  Mutex.lock pool.mu;
  if pool.completed <> pool.submitted then begin
    Mutex.unlock pool.mu;
    invalid_arg "Pool.reset_counters: requests still in flight"
  end;
  pool.submitted <- 0;
  pool.completed <- 0;
  pool.warm_hits <- 0;
  pool.cold_boots <- 0;
  pool.crashes <- 0;
  pool.deadline_hits <- 0;
  pool.retries <- 0;
  pool.requeues <- 0;
  pool.respawns <- 0;
  pool.reloads <- 0;
  pool.rejected_unknown <- 0;
  pool.rejected_quarantined <- 0;
  pool.quarantine_opens <- 0;
  pool.quarantine_closes <- 0;
  pool.probes <- 0;
  pool.shed <- 0;
  pool.batch_hits <- 0;
  pool.prewarm_boots <- 0;
  pool.serve_lat <- Stats.hist_create ();
  pool.results <- [];
  Array.iter (fun w -> w.w_busy_cycles <- 0) pool.workers;
  Atomic.set pool.cache_loads 0;
  Atomic.set pool.cache_refused 0;
  Mutex.unlock pool.mu

(** Every live warm instance as [(worker_id, key, engine)].  Like
    {!stats}, coherent only when the pool is quiescent: workers mutate
    their warm tables while serving, and a returned engine must not be
    touched while a worker owns it.  Exposed so tests and the autotuner
    can check which {!Options.t} a per-workload override actually
    reached. *)
let warm_instances pool : (int * string * Engine.t) list =
  Mutex.lock pool.mu;
  let out =
    Array.fold_left
      (fun acc w ->
        Hashtbl.fold (fun key rt acc -> (w.w_id, key, rt) :: acc) w.w_warm acc)
      [] pool.workers
  in
  Mutex.unlock pool.mu;
  List.sort
    (fun (i1, k1, _) (i2, k2, _) ->
      if i1 <> i2 then compare i1 i2 else compare k1 k2)
    out

(** Counter snapshot plus runtime stats merged across every live warm
    instance, its free-list gauges refreshed first.  Coherent only when
    the pool is quiescent (after {!drain}); instances dropped after
    failed requests are not represented. *)
let stats pool : snapshot =
  Mutex.lock pool.mu;
  let snap_stats =
    Array.fold_left
      (fun acc w ->
        Hashtbl.fold
          (fun _ rt acc ->
            Emit.refresh_cache_gauges rt;
            Stats.merge acc (Engine.stats rt))
          w.w_warm acc)
      (Stats.create ()) pool.workers
  in
  let quarantined_now =
    Hashtbl.fold (fun _ q n -> if q.q_open then n + 1 else n) pool.quar 0
  in
  let s =
    {
      snap_domains = Array.length pool.workers;
      snap_submitted = pool.submitted;
      snap_completed = pool.completed;
      snap_steals = 0;
      snap_warm_hits = pool.warm_hits;
      snap_cold_boots = pool.cold_boots;
      snap_busy_cycles = Array.map (fun w -> w.w_busy_cycles) pool.workers;
      snap_stats;
      snap_serve_lat = { Stats.counts = Array.copy pool.serve_lat.Stats.counts };
      snap_crashes = pool.crashes;
      snap_deadline_hits = pool.deadline_hits;
      snap_retries = pool.retries;
      snap_requeues = pool.requeues;
      snap_respawns = pool.respawns;
      snap_reloads = pool.reloads;
      snap_rejected_unknown = pool.rejected_unknown;
      snap_rejected_quarantined = pool.rejected_quarantined;
      snap_quarantine_opens = pool.quarantine_opens;
      snap_quarantine_closes = pool.quarantine_closes;
      snap_probes = pool.probes;
      snap_quarantined_now = quarantined_now;
      snap_cache_loads = Atomic.get pool.cache_loads;
      snap_cache_refused = Atomic.get pool.cache_refused;
      snap_shed = pool.shed;
      snap_batch_hits = pool.batch_hits;
      snap_prewarm_boots = pool.prewarm_boots;
    }
  in
  Mutex.unlock pool.mu;
  s

(** The on-disk name a workload key's image is saved under (keys may
    contain characters unsuitable for file names). *)
let cache_file_name (key : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    key
  ^ ".riocache"

(** Persist the fleet's warm code caches: for every registered key,
    save the fullest live instance's image to [dir]/<key>.riocache
    (stamped with the key's [boot_image_digest]).  Returns
    [(key, path, fragments_persisted)] for each image written.  Call
    only when the pool is quiescent (after {!drain}) — workers' warm
    tables must not be mid-request. *)
let save_caches pool ~(dir : string) : (string * string * int) list =
  Mutex.lock pool.mu;
  if pool.completed <> pool.submitted || pool.active <> 0 then begin
    Mutex.unlock pool.mu;
    invalid_arg "Pool.save_caches: requests still in flight"
  end;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let saved =
    List.filter_map
      (fun (key, boot) ->
        (* the fullest instance: most live fragments across its tids *)
        let fullness rt =
          List.fold_left
            (fun n ts ->
              n
              + Fragindex.bb_count ts.Types.index
              + Fragindex.trace_count ts.Types.index)
            0 rt.Types.thread_states
        in
        let best =
          Array.fold_left
            (fun acc w ->
              match Hashtbl.find_opt w.w_warm key with
              | None -> acc
              | Some rt -> (
                  let n = fullness rt in
                  match acc with
                  | Some (_, best_n) when best_n >= n -> acc
                  | _ -> Some (rt, n)))
            None pool.workers
        in
        match best with
        | None | Some (_, 0) -> None
        | Some (rt, _) ->
            let path = Filename.concat dir (cache_file_name key) in
            let n =
              Engine.save_image rt ~image_digest:boot.boot_image_digest ~path
            in
            Some (key, path, n))
      pool.boots
  in
  Mutex.unlock pool.mu;
  saved

let shutdown pool : unit =
  Mutex.lock pool.mu;
  pool.stopping <- true;
  Condition.broadcast pool.work_cv;
  Condition.broadcast pool.sup_cv;
  Mutex.unlock pool.mu;
  (match pool.sup_handle with Some h -> Domain.join h | None -> ());
  (* join every domain ever spawned, including respawned replacements
     and the crashed originals (joining a terminated domain is a no-op) *)
  List.iter Domain.join pool.handles;
  pool.handles <- [];
  pool.sup_handle <- None

module For_testing = struct
  let warm_instances = warm_instances
end

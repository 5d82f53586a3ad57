(** Supervised domain-parallel serving pool: N worker domains, each
    holding warm long-lived {!Engine.t} instances whose code caches
    survive across requests, fed from one run queue with bounded
    in-flight backpressure (DESIGN.md §6.5) — wrapped in fleet-level
    recovery machinery (§6.6): a per-request exception barrier, a
    supervisor that respawns dead worker domains, per-request
    cycle/wall-clock deadlines, a bounded retry ladder, and a
    per-workload-key quarantine circuit breaker. *)

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
          new instance of this key from — pre-warmed, rebuilt on
          reload, cold-retried or respawned alike; a refused load
          (different program or options, corruption, truncation) falls
          back to a plain cold boot.  Without it every new instance
          starts cold. *)
}

type request = {
  req_id : int;      (** caller-chosen correlation id, echoed in the result *)
  req_key : string;  (** workload key; selects the boot and the warm instance *)
  req_seed : int;
  req_input : int list;          (** full input stream for this request *)
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
      (** [Crashed] when the final attempt raised out of the engine and
          the exception barrier absorbed it; [Deadline_exceeded] when
          the watchdog preempted it *)
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
      (** {!try_submit} admission bound hit: [(admitted, accept_queue)] *)
  | Pool_stopping

val reject_to_string : reject -> string

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
  snap_cache_loads : int;        (** instances warm-booted from a saved image *)
  snap_cache_refused : int;      (** image loads refused (fell back to cold) *)
  snap_shed : int;               (** {!try_submit} rejections for overload *)
  snap_batch_hits : int;         (** same-key claims by the batcher *)
  snap_prewarm_boots : int;      (** instances built eagerly at boot/reload *)
}

type t

val create :
  ?cfg:Options.pool_opts ->
  ?chaos:Faultinject.chaos_opts ->
  boots:(string * boot) list ->
  unit ->
  t
(** Spawn the worker domains and the supervisor domain.  [cfg]
    (default {!Options.default_pool}) is validated with
    {!Options.validate_pool_exn}; it sets the domain count, in-flight
    cap, retry-ladder depth, quarantine threshold, per-request
    deadlines, admission bound and pre-warming.  [chaos] arms
    pool-scope fault injection: each worker gets a private
    deterministic stream derived from [ch_seed] and its worker id.
    @raise Options.Invalid_options on a rejected [cfg]. *)

val submit : t -> request -> (unit, reject) Stdlib.result
(** Validate and enqueue at the back of the run queue; blocks while the
    in-flight cap is reached.  Returns [Error] — never raises — when
    the key has no registered boot, when the key's circuit breaker is
    open with a probe already in flight, or after {!shutdown}.  When
    the breaker is open and no probe is in flight, the request is
    admitted {e as} the probe: its success closes the breaker, its
    failure re-arms it. *)

val try_submit : t -> request -> (unit, reject) Stdlib.result
(** {!submit} without blocking: where [submit] would wait for in-flight
    space, this sheds with [Overloaded] once admitted-but-unfinished
    requests reach the [accept_queue] bound — the serving front-end's
    typed backpressure (DESIGN.md §6.10). *)

val drain : t -> result list
(** Wait until every submitted request has completed; return (and
    clear) the accumulated results in completion order. *)

val take_results : t -> result list
(** Results completed so far, in completion order, without waiting;
    the server's loop pairs this with {!try_submit} to stream
    responses while other requests are still in flight. *)

val set_notify : t -> (unit -> unit) -> unit
(** Install the completion hook (default [ignore]).  It runs on the
    completing worker domain, under the pool mutex, each time the
    pending results go from empty to non-empty: one call per batch
    that {!take_results} (or {!drain}) will collect, not one per
    completion.  It must be quick, must not raise, and must not call
    back into the pool.  The server uses it to wake its [select] loop
    through a self-pipe (DESIGN.md §6.10). *)

val drain_and_reload : ?rebuild:bool -> t -> unit
(** Quiesce service (claimed requests finish, queued requests wait),
    drop every warm instance — with [~rebuild:true], build fresh
    pre-warmed instances for every (worker, key) pair — reset all
    quarantine breakers, and resume.  Accepted requests are never
    dropped: anything still queued is served by the reloaded fleet.
    @raise Invalid_argument if a reload is already in progress. *)

val reset_counters : t -> unit
(** Zero the warm/busy/supervision/serving counters and the latency
    histogram between measurement passes.  Call only when drained. *)

val stats : t -> snapshot
(** Counters plus runtime stats merged across all live warm instances.
    Merged stats are coherent only when the pool is quiescent. *)

val cache_file_name : string -> string
(** The file name a workload key's cache image is saved under inside
    the {!save_caches} directory (key sanitized + [".riocache"]). *)

val save_caches : t -> dir:string -> (string * string * int) list
(** Persist the fleet's warm code caches (DESIGN.md §6.8): for every
    registered key with a non-empty live instance, save the fullest
    instance's relocatable image to [dir]/{!cache_file_name}[ key],
    stamped with the key's [boot_image_digest].  Returns [(key, path,
    fragments_persisted)] per image written.  Pair with a [boot_cache]
    pointing at the same path to warm-boot the next fleet.
    @raise Invalid_argument unless the pool is drained. *)

val shutdown : t -> unit
(** Stop accepting work, let workers finish queued requests, join the
    supervisor and every worker domain (including respawned ones). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val warm_instances : t -> (int * string * Engine.t) list
  (** Every live warm instance as [(worker_id, key, engine)], sorted.
      Coherent only when the pool is quiescent (after {!drain}); the
      returned engines are still owned by their workers and must not be
      driven.  Lets tests and the autotuner verify which {!Options.t} a
      per-workload bundle override actually reached. *)
end

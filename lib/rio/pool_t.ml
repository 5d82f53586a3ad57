(* The types of {!Pool}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

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
          new instance of this key from — pre-warmed or cold-retried
          alike; a refused load
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
      (** admission bound hit: [(admitted, accept_queue)] — the
          non-blocking {!try_submit} path sheds instead of queueing
          without bound *)
  | Pool_stopping

type snapshot = {
  snap_completed : int;
  snap_steals : int;
      (** always 0: there is no work stealing; kept while [perf/] reads it *)
  snap_warm_hits : int;
  snap_cold_boots : int;
  snap_busy_cycles : int array;  (** per-worker simulated cycles served *)
  snap_stats : Stats.t;          (** merge over all live warm instances *)
  snap_serve_lat : Stats.hist;   (** per-request service latency, sim cycles *)
  (* --- recovery (DESIGN.md §6.6) --- *)
  snap_crashes : int;            (** attempts that ended in [Crashed] *)
  snap_deadline_hits : int;      (** attempts preempted by the watchdog *)
  snap_retries : int;            (** retry-ladder activations *)
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
  snap_prewarm_boots : int;      (** instances built eagerly at create *)
}

(** Domain-parallel serving pool: N worker domains, each holding warm
    long-lived {!Engine.t} instances whose code caches survive across
    requests, fed from one run queue with bounded in-flight
    backpressure (DESIGN.md §6.5).  A failed attempt has one recovery
    path (§6.6): a per-request exception barrier turns any raise into a
    [Crashed] result, per-request cycle/wall-clock deadlines preempt
    runaway requests, a bounded retry ladder re-serves failures on the
    same worker, and a per-workload-key quarantine circuit breaker
    stops admitting a key that keeps failing. *)

include module type of struct include Pool_t end

val reject_to_string : reject -> string

type t

val create :
  ?cfg:Options.pool_opts ->
  ?chaos:Faultinject.chaos_opts ->
  boots:(string * boot) list ->
  unit ->
  t
(** Spawn the worker domains.  [cfg]
    (default {!Options.default_pool}) is validated with
    {!Options.validate_pool_exn}; it sets the domain count, in-flight
    cap, retry-ladder depth, quarantine threshold, per-request
    deadlines, admission bound and pre-warming.  [chaos] arms
    pool-scope fault injection: each attempt's roll is drawn from
    [ch_seed], the request id and the attempt number, so it does not
    depend on which worker serves the request.
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

val reset_counters : t -> unit
(** Zero the warm/busy/recovery/serving counters and the latency
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
(** Stop accepting work, let workers finish queued requests, and join
    every worker domain.  A raise that escaped a worker's exception
    barrier (a pool bug) is re-raised here. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val warm_instances : t -> (int * string * Engine.t) list
  (** Every live warm instance as [(worker_id, key, engine)], sorted.
      Coherent only when the pool is quiescent (after {!drain}); the
      returned engines are still owned by their workers and must not be
      driven.  Lets tests and the autotuner verify which {!Options.t} a
      per-workload bundle override actually reached. *)
end

(** Deterministic, seeded fault injector (S34). *)

(** Request-scope faults, injected by the serving pool around whole
    request attempts rather than by the dispatcher inside one engine.
    Where the S34 injector sabotages {e cache state} and expects the
    audit + recovery ladder to heal it, chaos sabotages the {e fleet}:
    it crashes requests mid-run, stalls workers, poisons warm
    instances, and storms client hooks, and expects the pool's
    exception barrier + retry ladder + quarantine to keep every request
    served and output-identical. *)
type chaos_kind =
  | Chaos_crash      (** raise {!Injected_crash} mid-request: the pool's
                         barrier turns it into a [Crashed] result *)
  | Chaos_stall      (** the worker sleeps, tripping a wall-clock deadline *)
  | Chaos_poison     (** flip a byte of the instance's application image
                         so the request diverges or faults *)
  | Chaos_hook_storm (** arm a hook-raise burst against the client *)

exception Injected_crash
(** The injected mid-request crash: an ordinary exception, which the
    pool's exception barrier absorbs and its retry ladder heals. *)

type chaos_opts = {
  ch_seed : int;
  ch_period : int;         (** mean requests between injections (>= 1) *)
  ch_crash : bool;
  ch_stall : bool;
  ch_poison : bool;
  ch_hook_storm : bool;
}

val default_chaos : chaos_opts

(** Per-attempt chaos state: a private LCG stream drawn from (seed,
    request id, attempt), so concurrent workers never race on injector
    state, and which attempt is stalled, poisoned or crashed does not
    depend on which worker serves it. *)
type chaos_state

val chaos_make : chaos_opts -> req:int -> attempt:int -> chaos_state

val chaos_rand : chaos_state -> int -> int

val chaos_tick : chaos_state -> chaos_kind option
(** Roll the chaos dice for one request attempt: [None] roughly
    [ch_period - 1] times out of [ch_period], otherwise one of the
    enabled fault kinds uniformly. *)

val tick : Types.runtime -> Types.thread_state -> bool
(** Called by the dispatcher at each safe point.  Injects roughly once
    every [fi_period] calls; returns true when something was injected
    (the dispatcher then audits immediately). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val exit_patchable : Types.runtime -> Types.exit_ -> bool

  val inject_link_flip : Types.runtime -> bool
end

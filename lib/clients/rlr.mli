(** Redundant load removal (paper §4.1). *)

val make : unit -> Rio.Types.client
(** Build a fresh client record.  All counters live in the closure, so
    instances on different worker domains never share state.  Only the
    trace hook is registered: like most client optimizations, RLR
    restricts itself to hot code (§3.3). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val optimize_il : Rio.Stats.t -> Rio.Instrlist.t -> unit
  (** Decode the trace to Level 3, so no undecoded bundle hides a load,
      and run the load pass over it. *)
end

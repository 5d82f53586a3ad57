(** Instrumentation example: basic-block and instruction counting. *)

type counts

val make : ?dynamic:bool -> unit -> Rio.Types.client * counts

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val static_insns : counts -> int

  val dynamic_blocks : counts -> int

  val executions : counts -> int -> int
  (** Executions of one block tag (dynamic mode). *)

  val make_emitted : unit -> Rio.Types.client * (unit -> (int * int) list)
  (** Low-overhead execution counting: instead of a clean call (a full
      context save around a host callback), emit an [inc] on a counter in
      transparently-allocated runtime memory.  The only subtlety is
      eflags: [inc] writes five flags, so the increment is placed bare
      only when the block provably rewrites the flags before reading them
      (the Level-2 liveness analysis again); otherwise it is bracketed
      with a save/restore. *)
end

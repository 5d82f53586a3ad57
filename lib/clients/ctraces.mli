(** Custom traces: whole-procedure-call inlining (paper §4.4). *)

type t

val make : ?max_blocks:int -> unit -> Rio.Types.client * t

val heads_marked : t -> int

val returns_elided : t -> int

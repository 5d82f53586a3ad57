(** Client-hook exception barrier (S34). *)

val protect : Types.runtime -> hook:string -> (unit -> unit) -> unit
(** Barrier for hooks with no IL to protect (init, thread events,
    fragment-deleted, clean calls).  A raise is swallowed. *)

val protect_il :
  Types.runtime ->
  hook:string ->
  Instrlist.t -> (Instrlist.t -> unit) -> Instrlist.t
(** Barrier for IL-transforming hooks (basic block and trace creation).
    Returns the IL to emit: the client's when it succeeds, the
    pre-hook snapshot when it raises — a raising client must never
    change what reaches the cache. *)

val protect_end_trace :
  Types.runtime ->
  hook:string ->
  default:Types.end_trace_directive ->
  (unit -> Types.end_trace_directive) ->
  Types.end_trace_directive
(** Barrier for the end-of-trace query; a raise yields [default]. *)

(** [InstrList]: the linear code sequence the runtime and its clients
    manipulate (paper §3.1) — a doubly-linked list of {!Instr.t} with a
    single entrance and no internal join points.  Instrs are intrusive
    nodes: walk with [i.Instr.next] / [i.Instr.prev] or the iterators
    here. *)

type t

val create : unit -> t
val first : t -> Instr.t option
val last : t -> Instr.t option
val length : t -> int
val prev : Instr.t -> Instr.t option

val append : t -> Instr.t -> unit
(** @raise Invalid_argument if the instr already belongs to a list. *)

val prepend : t -> Instr.t -> unit
val insert_after : t -> Instr.t -> Instr.t -> unit
val insert_before : t -> Instr.t -> Instr.t -> unit
val remove : t -> Instr.t -> unit

val replace : t -> Instr.t -> Instr.t -> unit
(** [replace t old new_] swaps [new_] into [old]'s position. *)

val iter : t -> (Instr.t -> unit) -> unit
(** Safe against removal/replacement of the visited instr. *)

val iter_rev : t -> (Instr.t -> unit) -> unit
(** Last-to-first iteration (backward analyses); safe against
    removal/replacement of the visited instr. *)

val fold : t -> init:'a -> ('a -> Instr.t -> 'a) -> 'a
val to_list : t -> Instr.t list
val exists : t -> (Instr.t -> bool) -> bool

val append_all : dst:t -> t -> unit
(** Move every instr of the source list to the end of [dst]. *)

val split_bundles : t -> unit
(** Split every Level-0 bundle into per-instruction Level-1 instrs. *)

val decode_to : t -> Level.t -> unit
(** Raise every instruction to at least the given level ([L3] is what
    the runtime uses before trace optimization: fully decoded, raw bits
    valid). *)


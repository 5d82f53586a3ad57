(** inc→add / dec→sub strength reduction (paper §4.2, Figure 3). *)

type stats = { mutable examined : int; mutable converted : int }

val make : on_bb:bool -> Rio.Types.client
(** [make ~on_bb:false] transforms traces only (hot code); [~on_bb:true]
    additionally transforms every basic block, trading build time for
    coverage. *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val optimize_il : Rio.Instrlist.t -> stats -> unit
end

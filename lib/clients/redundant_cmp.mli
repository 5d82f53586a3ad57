(** Redundant flag-computation elimination — a fifth optimization
    beyond the paper's four, in the spirit of its "traditional compiler
    optimizations applied dynamically" theme (§4.1). *)

type t = { mutable removed : int; mutable examined : int }

val make : unit -> Rio.Types.client * t

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val optimize_il : t -> Rio.Instrlist.t -> unit
end

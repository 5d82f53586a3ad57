(** Dynamic opcode-mix statistics (§7's "statistics gathering"). *)

type t

val make : unit -> Rio.Types.client * t

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val dynamic_mix : t -> (Isa.Opcode.t * int) list
  (** Dynamic opcode counts, descending. *)
end

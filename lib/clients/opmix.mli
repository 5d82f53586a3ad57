(** Dynamic opcode-mix statistics (§7's "statistics gathering"). *)

open Isa

open Rio.Types

type t = {
  (* per-tag: execution counter address + static opcode histogram *)
  blocks : (int, int * (Opcode.t * int) list) Hashtbl.t;
  mutable rt : runtime option;
}

val make : unit -> Rio.Types.client * t

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val dynamic_mix : t -> (Isa.Opcode.t * int) list
  (** Dynamic opcode counts, descending. *)
end

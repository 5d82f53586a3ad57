(** Assembly-program representation. *)

type env = string -> int
(** Resolves a label to its absolute address.  Raises
    {!Unknown_label} for undefined labels. *)

exception Unknown_label of string

exception Duplicate_label of string

type item =
  | Label of string
  | Ins of (env -> Isa.Insn.t)
  | Align of int             (** pad with zero bytes to a multiple *)
  | Bytes_lit of string      (** raw bytes *)
  | Word32 of (env -> int) list   (** 32-bit little-endian words *)
  | Float64 of float list    (** 64-bit IEEE doubles *)
  | Space of int             (** zero-filled gap *)

type program = {
  name : string;
  entry : string;
  text : item list;
  data : item list;
}

val program :
  ?entry:string ->
  name:string -> text:item list -> ?data:item list -> unit -> program

(** SynISA decoders, at three fidelities — the foundation of the
    adaptive level-of-detail representation:

    - {!boundary} finds only the instruction length (Levels 0/1),
    - {!opcode_eflags} adds the opcode, hence the eflags effects
      (Level 2),
    - {!full} builds a complete {!Isa.Insn.t} (Levels 3/4).

    All three are total on arbitrary bytes: they return structured
    errors, never raise on malformed input (see the fuzz properties in
    the test suite). *)

type error =
  | Invalid_opcode of int * int  (** position, offending byte *)
  | Invalid_modrm of int

val error_to_string : error -> string

exception Decode_error of error

type fetch = int -> int
(** Byte fetcher: [fetch addr] is the byte at [addr] (0–255). *)

val fetch_bytes : Bytes.t -> fetch

val opcode_eflags : fetch -> int -> (Opcode.t * int, error) result
(** Opcode (hence eflags mask) and length, without building operands. *)

val full : fetch -> int -> (Insn.t * int, error) result
(** Full decode; implicit operands reconstructed, pc-relative targets
    resolved to absolute addresses. *)

val boundary_exn : fetch -> int -> int
val opcode_eflags_exn : fetch -> int -> Opcode.t * int
val full_exn : fetch -> int -> Insn.t * int

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val fetch_string : string -> fetch

  val boundary : fetch -> int -> (int, error) result
  (** Length of the instruction at the address; the cheapest decode. *)
end

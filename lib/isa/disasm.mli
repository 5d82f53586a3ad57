(** SynISA disassembler: textual rendering of decoded instructions and
    raw byte ranges, used by examples, debugging, and the Figure-2/4
    reproductions. *)

val insn_to_string : Insn.t -> string

val hex_bytes : Bytes.t -> string
(** Space-separated lowercase hex. *)

val region : Decode.fetch -> pc:int -> len:int -> string list
(** One line per instruction: address, raw bytes, mnemonic.  Stops at
    the first decode error, appending an error line. *)

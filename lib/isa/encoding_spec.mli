(** The SynISA binary encoding: one table of encoding forms, from which
    the decoders, the encoder and the assembler's mnemonics all derive. *)

val escape : int

val lock_prefix : int

val fits_i8 : int -> bool

val to_i32 : int -> int

include module type of struct include Encoding_spec_t end

val opcode_len : form -> int

val forms : form list

val one_byte : form option array

val two_byte : form option array

val forms_of : Opcode.t -> form array
(** The forms of an opcode, most compact first. *)

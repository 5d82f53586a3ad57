(** SynISA instruction encoder.

    Walks a per-opcode list of templates, most-compact first, and emits
    the first form whose operand shapes and immediate/displacement
    ranges match — the costly template-matching encode the paper
    describes for IA-32.  Direct branch targets become pc-relative
    displacements, so a CTI's encoding depends on its address. *)

type error =
  | Invalid_shape of string  (** {!Isa.Insn.validate} failed *)
  | No_template of string    (** no encoding form matches *)

val error_to_string : error -> string

exception Encode_error of error

val encode : ?long:bool -> pc:int -> Insn.t -> (Bytes.t, error) result
(** Encode for placement at [pc].  [~long:true] skips the rel8 forms of
    [jmp]/[jcc], producing fixed 4-byte displacements that a code cache
    can re-patch in place. *)

val encode_exn : ?long:bool -> pc:int -> Insn.t -> Bytes.t
val length : ?long:bool -> pc:int -> Insn.t -> int

(** {2 Fixed-form branches}

    The long [jmp rel32] ([0x81] rel32) and [jcc rel32] ([0x0F],
    [0x80+cc], rel32) forms, written without template matching: what a
    code cache emits for exit branches and stub jumps, and the only
    branch forms whose displacement it re-patches in place.  The
    encoder's own rel32 templates emit through these writers. *)

val jmp_rel32_len : int
val jcc_rel32_len : int

val write_rel32 : Bytes.t -> off:int -> next_pc:int -> int -> unit
(** Store [target - next_pc] at [off] as a little-endian rel32, wrapped
    to 32 bits like every encoded displacement. *)

val write_jmp_rel32 : Bytes.t -> off:int -> pc:int -> int -> unit
(** [write_jmp_rel32 b ~off ~pc target] writes [jmp target], placed at
    [pc], into [b] at [off]: the bytes of [encode_exn ~long:true ~pc]. *)

val write_jcc_rel32 : Bytes.t -> off:int -> pc:int -> Cond.t -> int -> unit
(** As {!write_jmp_rel32}, for [jcc c target]. *)

val long_branch_len : (int -> int) -> int -> int
(** [long_branch_len fetch pc]: the length of the long-form [jmp] or
    [jcc] at [pc] (reading only its opcode bytes), or 0 when [pc] holds
    anything else. *)

val is_short_branch : (int -> int) -> int -> bool
(** The opcode at [pc] is a rel8 [jmp] or [jcc]. *)

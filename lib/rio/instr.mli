(** The adaptive level-of-detail [Instr] (paper §3.1).

    An [Instr] migrates lazily between five representations: reading
    richer information raises the level (paying the decode exactly
    once); mutating operands invalidates the raw bytes (Level 4), whose
    encode must run the full template-matching encoder.  The [payload]
    and link fields are exposed because instrs are intrusive list nodes
    and low-level framework code (mangling, emission) pattern-matches
    on representation state; ordinary clients should stay on the
    accessor functions. *)

open Isa

include module type of struct include Instr_t end

(** {2 Construction} *)

val of_bundle : addr:int -> Bytes.t -> t
val of_raw : addr:int -> Bytes.t -> t
val of_insn : Insn.t -> t
(** A newly created (Level 4) instruction. *)

val of_decoded : addr:int -> raw:Bytes.t -> Insn.t -> t
(** Level 3: fully decoded with valid raw bytes. *)

val level : t -> Level.t

(** {2 Level transitions}

    Raising an L0 bundle fails: split it first
    ({!Instrlist.split_bundles}). *)

exception Bad_raw_bits of { addr : int; msg : string }
(** Raw bytes failed to decode during a level raise — cache corruption
    or client-supplied garbage.  Typed so the dispatcher's recovery
    ladder can catch it and heal instead of dying. *)

val raw_of : t -> Bytes.t * int
val uplevel2 : t -> unit
val uplevel3 : t -> unit
val invalidate_raw : t -> unit

(** {2 Accessors — levels adjust implicitly} *)

val is_bundle : t -> bool
val addr : t -> int
val get_opcode : t -> Opcode.t
val get_eflags : t -> Eflags.mask
val get_insn : t -> Insn.t
val num_srcs : t -> int
val get_src : t -> int -> Operand.t
val get_dst : t -> int -> Operand.t
val get_prefixes : t -> int
val set_insn : t -> Insn.t -> unit
val set_src : t -> int -> Operand.t -> unit
val set_prefixes : t -> int -> unit
val is_cti : t -> bool

val copy : t -> t
(** Deep copy: fresh payload bytes, note preserved, list links and
    ownership cleared. *)

(** {2 Length and encoding} *)

val encode : pc:int -> t -> Bytes.t
(** Copies raw bytes whenever valid (L0–L3 non-CTI); re-encodes CTIs
    (their pc-relative form depends on placement) and L4. *)

(** {2 Notes} *)

val set_note : t -> note -> unit
val get_note : t -> note

val to_string : t -> string

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val length : ?pc:int -> t -> int
end

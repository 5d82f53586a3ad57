(** Fully-decoded SynISA instructions: opcode, prefixes, and source/
    destination operand arrays {e including implicit operands} (e.g.
    [push] names [%esp] in both directions).  {!of_explicit} and
    {!explicit} are the single source of truth for operand conventions,
    shared by assembler, encoder, decoder, disassembler and, through the
    [mk_*] constructors, the interpreter and the runtime's
    instruction-creation macros. *)

type t = {
  opcode : Opcode.t;
  prefixes : int;
  srcs : Operand.t array;
  dsts : Operand.t array;
}

val prefix_lock : int

val make : ?prefixes:int -> Opcode.t -> srcs:Operand.t array -> dsts:Operand.t array -> t

val num_srcs : t -> int
val num_dsts : t -> int
val src : t -> int -> Operand.t
val dst : t -> int -> Operand.t
val eflags : t -> Eflags.mask
val is_cti : t -> bool
val equal : t -> t -> bool

(** {2 Explicit operands}

    The operands an assembly line names, destination first; the rest
    are implicit ([%esp] for the stack instructions, [%eax]/[%edx] for
    [idiv], a two-address destination read back as a source). *)

val arity : Opcode.t -> int
(** Number of explicit operands, 0–2. *)

val of_explicit : Opcode.t -> Operand.t -> Operand.t -> t
(** [of_explicit op x0 x1] builds [op] from its explicit operands,
    filling in the implicit ones; operands past {!arity} are ignored.
    The [mk_*] constructors below are its per-opcode spellings. *)

val no_operand : Operand.t
(** A filler for the operands of {!of_explicit} past the arity. *)

val explicit : t -> int -> Operand.t
(** [explicit i k] is explicit operand [k] of [i], or {!no_operand}
    past the arity: the inverse of {!of_explicit} on valid
    instructions. *)

(** {2 Constructors} — explicit operands only; implicit ones filled in. *)

val mk_mov : Operand.t -> Operand.t -> t
val mk_movzx8 : Operand.t -> Operand.t -> t
val mk_movzx16 : Operand.t -> Operand.t -> t
val mk_lea : Operand.t -> Operand.t -> t
val mk_push : Operand.t -> t
val mk_pop : Operand.t -> t
val mk_xchg : Operand.t -> Operand.t -> t
val mk_pushf : unit -> t
val mk_popf : unit -> t
val mk_add : Operand.t -> Operand.t -> t
val mk_adc : Operand.t -> Operand.t -> t
val mk_sub : Operand.t -> Operand.t -> t
val mk_sbb : Operand.t -> Operand.t -> t
val mk_and : Operand.t -> Operand.t -> t
val mk_or : Operand.t -> Operand.t -> t
val mk_xor : Operand.t -> Operand.t -> t
val mk_imul : Operand.t -> Operand.t -> t
val mk_inc : Operand.t -> t
val mk_dec : Operand.t -> t
val mk_neg : Operand.t -> t
val mk_not : Operand.t -> t
val mk_cmp : Operand.t -> Operand.t -> t
val mk_test : Operand.t -> Operand.t -> t
val mk_idiv : Operand.t -> t
val mk_shl : Operand.t -> Operand.t -> t
val mk_shr : Operand.t -> Operand.t -> t
val mk_sar : Operand.t -> Operand.t -> t
val mk_jmp : int -> t
val mk_jmp_ind : Operand.t -> t
val mk_jcc : Cond.t -> int -> t
val mk_call : int -> t
val mk_call_ind : Operand.t -> t
val mk_ret : unit -> t
val mk_fld : Reg.F.t -> Operand.t -> t
val mk_fst : Operand.t -> Reg.F.t -> t
val mk_fmov : Reg.F.t -> Reg.F.t -> t
val mk_fadd : Reg.F.t -> Operand.t -> t
val mk_fsub : Reg.F.t -> Operand.t -> t
val mk_fmul : Reg.F.t -> Operand.t -> t
val mk_fdiv : Reg.F.t -> Operand.t -> t
val mk_fabs : Reg.F.t -> t
val mk_fneg : Reg.F.t -> t
val mk_fsqrt : Reg.F.t -> t
val mk_fcmp : Reg.F.t -> Operand.t -> t
val mk_cvtsi : Reg.F.t -> Operand.t -> t
val mk_cvtfi : Operand.t -> Reg.F.t -> t
val mk_nop : unit -> t
val mk_hlt : unit -> t
val mk_out : Operand.t -> t
val mk_in : Operand.t -> t
val mk_ccall : int -> t

(** {2 Shape validation} *)

type shape_error = string

val validate : t -> (unit, shape_error) result
(** Check that the operands have a shape the encoder can materialize
    (no memory-to-memory forms, immediates in range, …). *)


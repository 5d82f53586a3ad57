(** Instruction-creation macros (paper §3.2).  Each takes the explicit
    operands only and returns a Level-4 {!Instr.t}; {!raw_insn} builds
    any other instruction from an opcode and its complete operand
    lists. *)

val of_insn : Isa.Insn.t -> Instr.t
(** Wrap an already-built instruction. *)

val mov : Isa.Operand.t -> Isa.Operand.t -> Instr.t
val lea : Isa.Operand.t -> Isa.Operand.t -> Instr.t
val push : Isa.Operand.t -> Instr.t
val pop : Isa.Operand.t -> Instr.t
val pushf : unit -> Instr.t
val popf : unit -> Instr.t
val add : Isa.Operand.t -> Isa.Operand.t -> Instr.t
val adc : Isa.Operand.t -> Isa.Operand.t -> Instr.t
val inc : Isa.Operand.t -> Instr.t
val dec : Isa.Operand.t -> Instr.t
val cmp : Isa.Operand.t -> Isa.Operand.t -> Instr.t
val jmp : int -> Instr.t
val jcc : Isa.Cond.t -> int -> Instr.t
val fld : Isa.Reg.F.t -> Isa.Operand.t -> Instr.t
val fst_ : Isa.Operand.t -> Isa.Reg.F.t -> Instr.t
val fadd : Isa.Reg.F.t -> Isa.Operand.t -> Instr.t
val fmul : Isa.Reg.F.t -> Isa.Operand.t -> Instr.t
val nop : unit -> Instr.t
val out : Isa.Operand.t -> Instr.t

val raw_insn :
  ?prefixes:int ->
  Isa.Opcode.t ->
  srcs:Isa.Operand.t array ->
  dsts:Isa.Operand.t array ->
  Instr.t
(** Bypass the per-instruction abstraction: an opcode plus its complete
    source and destination operand lists (implicit operands included). *)

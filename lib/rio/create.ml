(** Instruction-creation macros (paper §3.2): named constructors for
    the instructions the runtime and its clients build, taking only the
    {e explicit} operands and filling in implicit ones.  Each produces a
    Level-4 {!Instr.t}, ready to insert into an {!Instrlist.t}.

    Any other instruction is built with {!raw_insn}, the paper's
    "specify an opcode and complete list of operands". *)

open Isa

let of_insn = Instr.of_insn

let mov d s = of_insn (Insn.mk_mov d s)
let lea d s = of_insn (Insn.mk_lea d s)
let push s = of_insn (Insn.mk_push s)
let pop d = of_insn (Insn.mk_pop d)
let pushf () = of_insn (Insn.mk_pushf ())
let popf () = of_insn (Insn.mk_popf ())
let add d s = of_insn (Insn.mk_add d s)
let adc d s = of_insn (Insn.mk_adc d s)
let inc d = of_insn (Insn.mk_inc d)
let dec d = of_insn (Insn.mk_dec d)
let cmp a b = of_insn (Insn.mk_cmp a b)
let jmp target = of_insn (Insn.mk_jmp target)
let jcc c target = of_insn (Insn.mk_jcc c target)
let fld f m = of_insn (Insn.mk_fld f m)
let fst_ m f = of_insn (Insn.mk_fst m f)
let fadd d s = of_insn (Insn.mk_fadd d s)
let fmul d s = of_insn (Insn.mk_fmul d s)
let nop () = of_insn (Insn.mk_nop ())
let out s = of_insn (Insn.mk_out s)

(** Bypass the per-instruction abstraction. *)
let raw_insn ?(prefixes = 0) opcode ~srcs ~dsts =
  of_insn (Insn.make ~prefixes opcode ~srcs ~dsts)

(* The types of {!Encoding_spec}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

type field =
  | Reg_gpr         (** ModRM.reg, a GPR *)
  | Reg_fp          (** ModRM.reg, an FP register *)
  | Rm              (** ModRM.rm, a GPR or memory *)
  | Rm_mem          (** ModRM.rm, memory only *)
  | Rm_gpr          (** ModRM.rm, a GPR only *)
  | Rm_fp           (** ModRM.rm, an FP register only *)
  | Plus_r          (** a GPR added to the opcode byte *)
  | Imm8s           (** imm8, sign-extended *)
  | Imm8u           (** imm8, unsigned *)
  | Imm32
  | Rel8            (** direct target, rel8 from the end of the instruction *)
  | Rel32
  | Fixed of Operand.t  (** a register implied by the opcode byte *)

type form = {
  name : string;
  opcode : Opcode.t;
  escaped : bool;        (** preceded by the [0x0F] escape *)
  byte : int;            (** for [Plus_r], the byte for register 0 *)
  fields : field array;  (** one per explicit operand *)
  modrm : bool;          (** a ModRM byte follows the opcode *)
  tail : int;            (** immediate or rel bytes after ModRM, SIB, disp *)
  reg_slot : int;        (** the explicit operand in ModRM.reg, or -1 *)
  rm_slot : int;         (** ... in ModRM.rm, or -1: a ModRM with no
                             rm operand (the FP unary forms) is
                             register-direct, its rm field ignored on
                             decode and written as 0 *)
  plus_slot : int;       (** ... added to the opcode byte, or -1 *)
  tail_slot : int;       (** ... in the tail, or -1 *)
}

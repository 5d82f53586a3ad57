(* The types of {!Opcode}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

type t =
  (* data movement *)
  | Mov
  | Movzx8            (** load 8 bits, zero-extend *)
  | Movzx16           (** load 16 bits, zero-extend *)
  | Lea
  | Push
  | Pop
  | Xchg
  | Pushf             (** push eflags *)
  | Popf              (** pop eflags *)
  (* integer arithmetic *)
  | Add
  | Adc
  | Sub
  | Sbb
  | Inc
  | Dec
  | Neg
  | Cmp
  | Imul              (** two-operand: dst = dst * src *)
  | Idiv              (** eax = eax / src, edx = eax mod src (signed) *)
  (* logic *)
  | And
  | Or
  | Xor
  | Not
  | Test
  (* shifts *)
  | Shl
  | Shr
  | Sar
  (* control transfer *)
  | Jmp               (** direct unconditional *)
  | JmpInd            (** indirect through register/memory *)
  | Jcc of Cond.t
  | Call              (** direct call *)
  | CallInd
  | Ret
  (* floating point (64-bit IEEE double) *)
  | Fld               (** freg <- mem *)
  | Fst               (** mem <- freg *)
  | Fmov              (** freg <- freg *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fabs
  | Fneg
  | Fsqrt
  | Fcmp              (** compare, sets ZF/PF/CF like comisd *)
  | Cvtsi             (** freg <- signed gpr *)
  | Cvtfi             (** gpr <- freg, truncating *)
  (* system *)
  | Nop
  | Hlt
  | Out               (** write gpr to output port (the VM's "syscall") *)
  | In                (** read next value from input port into gpr *)
  | Ccall             (** runtime-reserved: clean call into the host *)

type cti_kind =
  | Not_cti
  | Cti_direct_jmp
  | Cti_cond          (** conditional direct branch *)
  | Cti_ind_jmp
  | Cti_direct_call
  | Cti_ind_call
  | Cti_return
  | Cti_halt

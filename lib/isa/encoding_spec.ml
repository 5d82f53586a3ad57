(** The SynISA binary encoding: one table of encoding forms, from which
    the decoders, the encoder and the assembler's mnemonics all derive.

    SynISA is a variable-length CISC encoding (1–12 bytes per
    instruction) in the IA-32 mould:

    {v
    [0xF0 lock prefix] opcode [opcode2] [ModRM] [SIB] [disp8/32] [imm8/32]
    v}

    ModRM is exactly IA-32's: [mod(2) | reg(3) | rm(3)]; mod=3 register
    direct; rm=4 selects a SIB byte [scale(2) | index(3) | base(3)];
    index=4 in SIB means "no index"; mod=0,rm=5 is absolute disp32;
    mod=0,SIB base=5 is disp32 with no base.  Direct branch targets are
    encoded pc-relative to the end of the instruction.

    A {!form} is one encoding of an opcode: its opcode byte (after the
    [0x0F] escape for two-byte forms) and, for each explicit operand
    ({!Insn.explicit}), the field that carries it.  An opcode's forms
    are listed most compact first; the encoder emits the first one the
    operands fit, so that order is part of the encoding. *)

let escape = 0x0F
let lock_prefix = 0xF0

let fits_i8 n = n >= -128 && n <= 127

(* signed 32-bit wraparound helpers for displacements *)
let to_i32 n =
  let n = n land 0xFFFF_FFFF in
  if n >= 0x8000_0000 then n - 0x1_0000_0000 else n

include Encoding_spec_t

let opcode_len r = if r.escaped then 2 else 1

let tail_len = function Imm8s | Imm8u | Rel8 -> 1 | Imm32 | Rel32 -> 4 | _ -> 0

let slot p fields =
  let rec go k = if k = Array.length fields then -1 else if p fields.(k) then k else go (k + 1) in
  go 0

let form ?(escaped = false) name (opcode : Opcode.t) byte fields =
  let fields = Array.of_list fields in
  assert (Array.length fields = Insn.arity opcode);
  let reg_slot = slot (function Reg_gpr | Reg_fp -> true | _ -> false) fields in
  let rm_slot = slot (function Rm | Rm_mem | Rm_gpr | Rm_fp -> true | _ -> false) fields in
  {
    name; opcode; escaped; byte; fields;
    modrm = reg_slot >= 0 || rm_slot >= 0;
    tail = Array.fold_left (fun n f -> n + tail_len f) 0 fields;
    reg_slot; rm_slot;
    plus_slot = slot (( = ) Plus_r) fields;
    tail_slot = slot (fun f -> tail_len f > 0) fields;
  }

(* ------------------------------------------------------------------ *)
(* The table                                                          *)
(* ------------------------------------------------------------------ *)

let forms : form list =
  let open Opcode in
  let esc = form ~escaped:true in
  let numbered ops f = List.concat (List.mapi f ops) in
  List.concat
    [
      (* [0x00-0x3F]: bits 7..3 select the operation, bits 2..0 the form *)
      numbered [ Add; Sub; And; Or; Xor; Cmp; Adc; Sbb ] (fun k op ->
          let b = k lsl 3 in
          [
            form "alu_eax_imm8" op (b + 4) [ Fixed (Reg Reg.Eax); Imm8s ];
            form "alu_rm_imm8" op (b + 2) [ Rm; Imm8s ];
            form "alu_eax_imm32" op (b + 5) [ Fixed (Reg Reg.Eax); Imm32 ];
            form "alu_rm_imm32" op (b + 3) [ Rm; Imm32 ];
            form "alu_rm_reg" op b [ Rm; Reg_gpr ];
            form "alu_reg_rm" op (b + 1) [ Reg_gpr; Rm ];
          ]);
      [
        form "inc_r" Inc 0x40 [ Plus_r ];
        form "inc_rm" Inc 0x9A [ Rm ];
        form "dec_r" Dec 0x48 [ Plus_r ];
        form "dec_rm" Dec 0x9B [ Rm ];
        form "push_r" Push 0x50 [ Plus_r ];
        form "push_imm32" Push 0x88 [ Imm32 ];
        form "push_rm" Push 0x86 [ Rm ];
        form "pop_r" Pop 0x58 [ Plus_r ];
        form "pop_rm" Pop 0x87 [ Rm ];
        form "mov_r_imm32" Mov 0x68 [ Plus_r; Imm32 ];
        form "mov_rm_imm32" Mov 0x62 [ Rm; Imm32 ];
        form "mov_rm_reg" Mov 0x60 [ Rm; Reg_gpr ];
        form "mov_reg_rm" Mov 0x61 [ Reg_gpr; Rm ];
        form "test_rm_reg" Test 0x63 [ Rm; Reg_gpr ];
        form "test_rm_imm32" Test 0x64 [ Rm; Imm32 ];
        form "lea" Lea 0x65 [ Reg_gpr; Rm_mem ];
        form "xchg" Xchg 0x66 [ Reg_gpr; Rm ];
        form "imul_reg_imm32" Imul 0x9D [ Rm_gpr; Imm32 ];
        form "imul_reg_rm" Imul 0x67 [ Reg_gpr; Rm ];
      ];
      List.map (fun c -> form "jcc_rel8" (Jcc c) (0x70 + Cond.number c) [ Rel8 ]) Cond.all;
      [
        form "jmp_rel8" Jmp 0x80 [ Rel8 ];
        form "jmp_rel32" Jmp 0x81 [ Rel32 ];
        form "jmp_rm" JmpInd 0x82 [ Rm ];
        form "call_rel32" Call 0x83 [ Rel32 ];
        form "call_rm" CallInd 0x84 [ Rm ];
        form "ret" Ret 0x85 [];
        form "movzx8" Movzx8 0x89 [ Reg_gpr; Rm ];
        form "movzx16" Movzx16 0x8A [ Reg_gpr; Rm ];
        form "idiv" Idiv 0x8B [ Rm ];
        form "out_reg" Out 0x8C [ Rm_gpr ];
        form "out_imm32" Out 0x9C [ Imm32 ];
        form "in" In 0x8D [ Rm_gpr ];
        form "pushf" Pushf 0x8E [];
        form "popf" Popf 0x8F [];
        form "nop" Nop 0x90 [];
        form "neg" Neg 0x98 [ Rm ];
        form "not" Not 0x99 [ Rm ];
        form "hlt" Hlt 0xF4 [];
      ];
      numbered [ Shl; Shr; Sar ] (fun k op ->
          [ form "shift_imm8" op (0xA0 + k) [ Rm; Imm8u ];
            form "shift_cl" op (0xA3 + k) [ Rm; Fixed (Reg Reg.Ecx) ] ]);
      (* two-byte forms, after the 0x0F escape *)
      [
        esc "fld" Fld 0x10 [ Reg_fp; Rm_mem ];
        esc "fst" Fst 0x11 [ Rm_mem; Reg_fp ];
        esc "fmov" Fmov 0x12 [ Reg_fp; Rm_fp ];
      ];
      numbered [ Fadd; Fsub; Fmul; Fdiv ] (fun k op ->
          [ esc "fp_ff" op (0x20 + k) [ Reg_fp; Rm_fp ];
            esc "fp_fm" op (0x28 + k) [ Reg_fp; Rm_mem ] ]);
      [
        esc "fcmp_ff" Fcmp 0x30 [ Reg_fp; Rm_fp ];
        esc "fcmp_fm" Fcmp 0x31 [ Reg_fp; Rm_mem ];
      ];
      numbered [ Fabs; Fneg; Fsqrt ] (fun k op -> [ esc "fp_unary" op (0x38 + k) [ Reg_fp ] ]);
      [
        esc "cvtsi" Cvtsi 0x40 [ Reg_fp; Rm ];
        esc "cvtfi" Cvtfi 0x41 [ Rm_gpr; Reg_fp ];
      ];
      List.map (fun c -> esc "jcc_rel32" (Jcc c) (0x80 + Cond.number c) [ Rel32 ]) Cond.all;
      [ esc "ccall" Ccall 0xC0 [ Imm32 ] (* runtime-reserved *) ];
    ]

(* ------------------------------------------------------------------ *)
(* Derived lookups                                                    *)
(* ------------------------------------------------------------------ *)

(* Opcode byte -> form, one map per opcode space; a [Plus_r] form
   takes all eight bytes from its own. *)
let one_byte, two_byte =
  let one = Array.make 256 None and two = Array.make 256 None in
  List.iter
    (fun r ->
      let map = if r.escaped then two else one in
      for b = r.byte to r.byte + if r.plus_slot >= 0 then 7 else 0 do
        assert (Option.is_none map.(b));
        map.(b) <- Some r
      done)
    forms;
  (one, two)

let by_opcode =
  let a = Array.make Opcode.count [||] in
  List.iter
    (fun r ->
      let k = Opcode.index r.opcode in
      a.(k) <- Array.append a.(k) [| r |])
    forms;
  a

(** The forms of an opcode, most compact first. *)
let forms_of op = by_opcode.(Opcode.index op)

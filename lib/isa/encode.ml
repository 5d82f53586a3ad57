(** SynISA instruction encoder.

    Encoding walks a per-opcode list of {e templates}, most-compact
    first, and emits the first one whose operand shapes and
    immediate/displacement ranges match — mirroring the costly
    template-matching encode the paper describes for IA-32.  Direct
    branch targets are turned into pc-relative displacements, so the
    encoding of a CTI depends on the address it is emitted at. *)

type error =
  | Invalid_shape of string      (** [Insn.validate] failed *)
  | No_template of string        (** no encoding form matches *)

let error_to_string = function
  | Invalid_shape s -> "invalid instruction shape: " ^ s
  | No_template s -> "no matching encoding template: " ^ s

exception Encode_error of error

(* ------------------------------------------------------------------ *)
(* Byte emission                                                      *)
(* ------------------------------------------------------------------ *)

let emit_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let emit_u32 buf v =
  emit_u8 buf v;
  emit_u8 buf (v lsr 8);
  emit_u8 buf (v lsr 16);
  emit_u8 buf (v lsr 24)

(* ModRM + SIB + displacement for a register-or-memory operand, with
   [ext] in the reg field (a register number, FP register, or opcode
   extension). Raises [Not_found] if the operand is not encodable. *)
let emit_modrm buf ~ext (op : Operand.t) =
  let modrm m reg rm = emit_u8 buf ((m lsl 6) lor (reg lsl 3) lor rm) in
  let sib scale index base =
    let s = match scale with 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> raise Not_found in
    emit_u8 buf ((s lsl 6) lor (index lsl 3) lor base)
  in
  match op with
  | Operand.Reg r -> modrm 3 ext (Reg.number r)
  | Operand.Freg f -> modrm 3 ext (Reg.F.number f)
  | Operand.Mem { base; index; disp } -> (
      (match index with
       | Some (r, _) when Reg.equal r Reg.Esp -> raise Not_found
       | _ -> ());
      match (base, index) with
      | None, None ->
          (* absolute: mod=0 rm=5 disp32 *)
          modrm 0 ext 5;
          emit_u32 buf disp
      | Some b, None when not (Reg.equal b Reg.Esp) ->
          let bn = Reg.number b in
          if disp = 0 && not (Reg.equal b Reg.Ebp) then modrm 0 ext bn
          else if Encoding_spec.fits_i8 disp then (
            modrm 1 ext bn;
            emit_u8 buf disp)
          else (
            modrm 2 ext bn;
            emit_u32 buf disp)
      | Some b, None (* b = esp: needs SIB *) ->
          let bn = Reg.number b in
          if disp = 0 then (
            modrm 0 ext 4;
            sib 1 4 bn)
          else if Encoding_spec.fits_i8 disp then (
            modrm 1 ext 4;
            sib 1 4 bn;
            emit_u8 buf disp)
          else (
            modrm 2 ext 4;
            sib 1 4 bn;
            emit_u32 buf disp)
      | None, Some (i, s) ->
          (* index without base: mod=0, SIB base=5, disp32 mandatory *)
          modrm 0 ext 4;
          sib s (Reg.number i) 5;
          emit_u32 buf disp
      | Some b, Some (i, s) ->
          let bn = Reg.number b in
          if disp = 0 && not (Reg.equal b Reg.Ebp) then (
            modrm 0 ext 4;
            sib s (Reg.number i) bn)
          else if Encoding_spec.fits_i8 disp then (
            modrm 1 ext 4;
            sib s (Reg.number i) bn;
            emit_u8 buf disp)
          else (
            modrm 2 ext 4;
            sib s (Reg.number i) bn;
            emit_u32 buf disp))
  | Operand.Imm _ | Operand.Target _ -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Fixed-form branches                                                *)
(* ------------------------------------------------------------------ *)

(* The long [jmp]/[jcc] forms have one fixed shape: opcode byte(s) and
   a rel32 from the end of the instruction.  A code cache writes exit
   branches and stub jumps straight from these writers, and re-targets
   them by rewriting only the rel32; the [jmp_rel32]/[jcc_rel32]
   templates below emit through them, so both agree by construction. *)

let jmp_rel32_len = 5
let jcc_rel32_len = 6

(* [target - next_pc], wrapped to 32 bits exactly as [emit_u32] does *)
let write_rel32 b ~off ~next_pc target =
  Bytes.set_int32_le b off (Int32.of_int (target - next_pc))

let write_jmp_rel32 b ~off ~pc target =
  Bytes.set b off '\x81';
  write_rel32 b ~off:(off + 1) ~next_pc:(pc + jmp_rel32_len) target

let write_jcc_rel32 b ~off ~pc c target =
  Bytes.set b off (Char.chr Encoding_spec.escape);
  Bytes.set b (off + 1) (Char.chr (0x80 + Cond.number c));
  write_rel32 b ~off:(off + 2) ~next_pc:(pc + jcc_rel32_len) target

let long_branch_len (fetch : int -> int) pc =
  match fetch pc with
  | 0x81 -> jmp_rel32_len
  | b when b = Encoding_spec.escape && fetch (pc + 1) land 0xF0 = 0x80 ->
      jcc_rel32_len
  | _ -> 0

let is_short_branch (fetch : int -> int) pc =
  let b = fetch pc in
  b = 0x80 || (b >= 0x70 && b < 0x80)

(* ------------------------------------------------------------------ *)
(* Templates                                                          *)
(* ------------------------------------------------------------------ *)

(* A template inspects the instruction and, if it matches, emits the
   full encoding into a fresh buffer.  [pc] is the address the
   instruction will live at (for pc-relative targets); templates whose
   length depends on the displacement must account for their own
   length when computing it. *)
type template = {
  tname : string;
  try_encode : pc:int -> prefix_len:int -> Insn.t -> Bytes.t option;
}

let tmpl tname f = { tname; try_encode = f }

let run1 f =
  let buf = Buffer.create 8 in
  f buf;
  Some (Buffer.to_bytes buf)

(* rel computation: [len] is the instruction length including prefix *)
let rel_of ~pc ~prefix_len ~body_len target =
  Encoding_spec.to_i32 (target - (pc + prefix_len + body_len))

let opt_of_not_found f = try f () with Not_found -> None

open Operand

(* --- ALU block ---------------------------------------------------- *)

let alu_templates idx =
  let base = idx lsl 3 in
  [
    (* eax <- imm8 (shortest) *)
    tmpl "alu_eax_imm8" (fun ~pc:_ ~prefix_len:_ i ->
        match (i.Insn.dsts, i.Insn.srcs, i.Insn.opcode) with
        | [| Reg Reg.Eax |], [| Imm n; Reg Reg.Eax |], _
        | [||], [| Reg Reg.Eax; Imm n |], Opcode.Cmp
          when Encoding_spec.fits_i8 n ->
            run1 (fun b ->
                emit_u8 b (base lor 4);
                emit_u8 b n)
        | _ -> None);
    tmpl "alu_rm_imm8" (fun ~pc:_ ~prefix_len:_ i ->
        match (i.Insn.dsts, i.Insn.srcs, i.Insn.opcode) with
        | [| rm |], [| Imm n; _ |], _ | [||], [| rm; Imm n |], Opcode.Cmp
          when Encoding_spec.fits_i8 n ->
            opt_of_not_found (fun () ->
                run1 (fun b ->
                    emit_u8 b (base lor 2);
                    emit_modrm b ~ext:0 rm;
                    emit_u8 b n))
        | _ -> None);
    tmpl "alu_eax_imm32" (fun ~pc:_ ~prefix_len:_ i ->
        match (i.Insn.dsts, i.Insn.srcs, i.Insn.opcode) with
        | [| Reg Reg.Eax |], [| Imm n; Reg Reg.Eax |], _
        | [||], [| Reg Reg.Eax; Imm n |], Opcode.Cmp ->
            run1 (fun b ->
                emit_u8 b (base lor 5);
                emit_u32 b n)
        | _ -> None);
    tmpl "alu_rm_imm32" (fun ~pc:_ ~prefix_len:_ i ->
        match (i.Insn.dsts, i.Insn.srcs, i.Insn.opcode) with
        | [| rm |], [| Imm n; _ |], _ | [||], [| rm; Imm n |], Opcode.Cmp ->
            opt_of_not_found (fun () ->
                run1 (fun b ->
                    emit_u8 b (base lor 3);
                    emit_modrm b ~ext:0 rm;
                    emit_u32 b n))
        | _ -> None);
    tmpl "alu_rm_reg" (fun ~pc:_ ~prefix_len:_ i ->
        match (i.Insn.dsts, i.Insn.srcs, i.Insn.opcode) with
        | [| rm |], [| Reg src; _ |], _ | [||], [| rm; Reg src |], Opcode.Cmp ->
            opt_of_not_found (fun () ->
                run1 (fun b ->
                    emit_u8 b base;
                    emit_modrm b ~ext:(Reg.number src) rm))
        | _ -> None);
    tmpl "alu_reg_rm" (fun ~pc:_ ~prefix_len:_ i ->
        match (i.Insn.dsts, i.Insn.srcs, i.Insn.opcode) with
        | [| Reg dst |], [| (Mem _ as rm); _ |], _
        | [||], [| Reg dst; (Mem _ as rm) |], Opcode.Cmp ->
            opt_of_not_found (fun () ->
                run1 (fun b ->
                    emit_u8 b (base lor 1);
                    emit_modrm b ~ext:(Reg.number dst) rm))
        | _ -> None);
  ]

(* --- generic helpers ---------------------------------------------- *)

let t_op_rm ~name op1 ?op2 ~ext pick =
  tmpl name (fun ~pc:_ ~prefix_len:_ i ->
      match pick i with
      | None -> None
      | Some rm ->
          opt_of_not_found (fun () ->
              run1 (fun b ->
                  emit_u8 b op1;
                  Option.iter (emit_u8 b) op2;
                  emit_modrm b ~ext rm)))

let t_short_reg ~name base pick =
  tmpl name (fun ~pc:_ ~prefix_len:_ i ->
      match pick i with
      | Some (Reg r) -> run1 (fun b -> emit_u8 b (base + Reg.number r))
      | _ -> None)

(* --- per-opcode template lists ------------------------------------ *)

let src0 i = Some i.Insn.srcs.(0)
let dst0 i = Some i.Insn.dsts.(0)

let templates_of (i : Insn.t) : template list =
  match i.opcode with
  | Add | Sub | And | Or | Xor | Cmp | Adc | Sbb ->
      let idx = Option.get (Encoding_spec.alu_index i.opcode) in
      alu_templates idx
  | Inc ->
      [ t_short_reg ~name:"inc_r" 0x40 dst0; t_op_rm ~name:"inc_rm" 0x9A ~ext:0 dst0 ]
  | Dec ->
      [ t_short_reg ~name:"dec_r" 0x48 dst0; t_op_rm ~name:"dec_rm" 0x9B ~ext:0 dst0 ]
  | Push ->
      [
        t_short_reg ~name:"push_r" 0x50 src0;
        tmpl "push_imm32" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs.(0) with
            | Imm n ->
                run1 (fun b ->
                    emit_u8 b 0x88;
                    emit_u32 b n)
            | _ -> None);
        t_op_rm ~name:"push_rm" 0x86 ~ext:0 src0;
      ]
  | Pop -> [ t_short_reg ~name:"pop_r" 0x58 dst0; t_op_rm ~name:"pop_rm" 0x87 ~ext:0 dst0 ]
  | Pushf -> [ tmpl "pushf" (fun ~pc:_ ~prefix_len:_ _ -> run1 (fun b -> emit_u8 b 0x8E)) ]
  | Popf -> [ tmpl "popf" (fun ~pc:_ ~prefix_len:_ _ -> run1 (fun b -> emit_u8 b 0x8F)) ]
  | Mov ->
      [
        tmpl "mov_r_imm32" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Reg r |], [| Imm n |] ->
                run1 (fun b ->
                    emit_u8 b (0x68 + Reg.number r);
                    emit_u32 b n)
            | _ -> None);
        tmpl "mov_rm_imm32" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| rm |], [| Imm n |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x62;
                        emit_modrm b ~ext:0 rm;
                        emit_u32 b n))
            | _ -> None);
        tmpl "mov_rm_reg" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| rm |], [| Reg src |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x60;
                        emit_modrm b ~ext:(Reg.number src) rm))
            | _ -> None);
        tmpl "mov_reg_rm" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Reg dst |], [| (Mem _ as rm) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x61;
                        emit_modrm b ~ext:(Reg.number dst) rm))
            | _ -> None);
      ]
  | Test ->
      [
        tmpl "test_rm_reg" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs with
            | [| rm; Reg r |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x63;
                        emit_modrm b ~ext:(Reg.number r) rm))
            | _ -> None);
        tmpl "test_rm_imm32" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs with
            | [| rm; Imm n |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x64;
                        emit_modrm b ~ext:0 rm;
                        emit_u32 b n))
            | _ -> None);
      ]
  | Lea ->
      [
        tmpl "lea" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Reg dst |], [| (Mem _ as m) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x65;
                        emit_modrm b ~ext:(Reg.number dst) m))
            | _ -> None);
      ]
  | Xchg ->
      [
        tmpl "xchg" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.dsts with
            | [| Reg a; rm |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x66;
                        emit_modrm b ~ext:(Reg.number a) rm))
            | _ -> None);
      ]
  | Imul ->
      [
        tmpl "imul_reg_imm32" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| (Reg _ as dst) |], [| Imm n; _ |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x9D;
                        emit_modrm b ~ext:0 dst;
                        emit_u32 b n))
            | _ -> None);
        tmpl "imul_reg_rm" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Reg dst |], [| ((Reg _ | Mem _) as rm); _ |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x67;
                        emit_modrm b ~ext:(Reg.number dst) rm))
            | _ -> None);
      ]
  | Neg -> [ t_op_rm ~name:"neg" 0x98 ~ext:0 dst0 ]
  | Not -> [ t_op_rm ~name:"not" 0x99 ~ext:0 dst0 ]
  | Idiv -> [ t_op_rm ~name:"idiv" 0x8B ~ext:0 src0 ]
  | Movzx8 ->
      [
        tmpl "movzx8" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Reg dst |], [| rm |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x89;
                        emit_modrm b ~ext:(Reg.number dst) rm))
            | _ -> None);
      ]
  | Movzx16 ->
      [
        tmpl "movzx16" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Reg dst |], [| rm |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x8A;
                        emit_modrm b ~ext:(Reg.number dst) rm))
            | _ -> None);
      ]
  | Shl | Shr | Sar ->
      let idx = match i.opcode with Shl -> 0 | Shr -> 1 | _ -> 2 in
      [
        tmpl "shift_imm8" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| rm |], [| Imm n; _ |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b (0xA0 + idx);
                        emit_modrm b ~ext:0 rm;
                        emit_u8 b n))
            | _ -> None);
        tmpl "shift_cl" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| rm |], [| Reg Reg.Ecx; _ |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b (0xA3 + idx);
                        emit_modrm b ~ext:0 rm))
            | _ -> None);
      ]
  | Jcc c ->
      [
        tmpl "jcc_rel8" (fun ~pc ~prefix_len i ->
            match i.Insn.srcs with
            | [| Target t |] ->
                let rel = rel_of ~pc ~prefix_len ~body_len:2 t in
                if Encoding_spec.fits_i8 rel then
                  run1 (fun b ->
                      emit_u8 b (0x70 + Cond.number c);
                      emit_u8 b rel)
                else None
            | _ -> None);
        tmpl "jcc_rel32" (fun ~pc ~prefix_len i ->
            match i.Insn.srcs with
            | [| Target t |] ->
                let b = Bytes.create jcc_rel32_len in
                write_jcc_rel32 b ~off:0 ~pc:(pc + prefix_len) c t;
                Some b
            | _ -> None);
      ]
  | Jmp ->
      [
        tmpl "jmp_rel8" (fun ~pc ~prefix_len i ->
            match i.Insn.srcs with
            | [| Target t |] ->
                let rel = rel_of ~pc ~prefix_len ~body_len:2 t in
                if Encoding_spec.fits_i8 rel then
                  run1 (fun b ->
                      emit_u8 b 0x80;
                      emit_u8 b rel)
                else None
            | _ -> None);
        tmpl "jmp_rel32" (fun ~pc ~prefix_len i ->
            match i.Insn.srcs with
            | [| Target t |] ->
                let b = Bytes.create jmp_rel32_len in
                write_jmp_rel32 b ~off:0 ~pc:(pc + prefix_len) t;
                Some b
            | _ -> None);
      ]
  | JmpInd -> [ t_op_rm ~name:"jmp_rm" 0x82 ~ext:0 src0 ]
  | Call ->
      [
        tmpl "call_rel32" (fun ~pc ~prefix_len i ->
            match i.Insn.srcs.(0) with
            | Target t ->
                let rel = rel_of ~pc ~prefix_len ~body_len:5 t in
                run1 (fun b ->
                    emit_u8 b 0x83;
                    emit_u32 b rel)
            | _ -> None);
      ]
  | CallInd -> [ t_op_rm ~name:"call_rm" 0x84 ~ext:0 src0 ]
  | Ret -> [ tmpl "ret" (fun ~pc:_ ~prefix_len:_ _ -> run1 (fun b -> emit_u8 b 0x85)) ]
  | Nop -> [ tmpl "nop" (fun ~pc:_ ~prefix_len:_ _ -> run1 (fun b -> emit_u8 b 0x90)) ]
  | Hlt -> [ tmpl "hlt" (fun ~pc:_ ~prefix_len:_ _ -> run1 (fun b -> emit_u8 b 0xF4)) ]
  | Out ->
      [
        tmpl "out_reg" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs with
            | [| (Reg _ as r) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x8C;
                        emit_modrm b ~ext:0 r))
            | _ -> None);
        tmpl "out_imm32" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs with
            | [| Imm n |] ->
                run1 (fun b ->
                    emit_u8 b 0x9C;
                    emit_u32 b n)
            | _ -> None);
      ]
  | In ->
      [
        tmpl "in" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.dsts with
            | [| (Reg _ as r) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b 0x8D;
                        emit_modrm b ~ext:0 r))
            | _ -> None);
      ]
  | Fld ->
      [
        tmpl "fld" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Freg f |], [| (Mem _ as m) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b 0x10;
                        emit_modrm b ~ext:(Reg.F.number f) m))
            | _ -> None);
      ]
  | Fst ->
      [
        tmpl "fst" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| (Mem _ as m) |], [| Freg f |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b 0x11;
                        emit_modrm b ~ext:(Reg.F.number f) m))
            | _ -> None);
      ]
  | Fmov ->
      [
        tmpl "fmov" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Freg d |], [| (Freg _ as s) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b 0x12;
                        emit_modrm b ~ext:(Reg.F.number d) s))
            | _ -> None);
      ]
  | Fadd | Fsub | Fmul | Fdiv ->
      let idx =
        match i.opcode with Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | _ -> 3
      in
      [
        tmpl "fp_ff" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Freg d |], [| (Freg _ as s); _ |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b (0x20 + idx);
                        emit_modrm b ~ext:(Reg.F.number d) s))
            | _ -> None);
        tmpl "fp_fm" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Freg d |], [| (Mem _ as m); _ |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b (0x28 + idx);
                        emit_modrm b ~ext:(Reg.F.number d) m))
            | _ -> None);
      ]
  | Fcmp ->
      [
        tmpl "fcmp_ff" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs with
            | [| Freg a; (Freg _ as s) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b 0x30;
                        emit_modrm b ~ext:(Reg.F.number a) s))
            | _ -> None);
        tmpl "fcmp_fm" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs with
            | [| Freg a; (Mem _ as m) |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b 0x31;
                        emit_modrm b ~ext:(Reg.F.number a) m))
            | _ -> None);
      ]
  | Fabs | Fneg | Fsqrt ->
      let second =
        match i.opcode with Fabs -> 0x38 | Fneg -> 0x39 | _ -> 0x3A
      in
      [
        tmpl "fp_unary" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.dsts with
            | [| (Freg f) |] ->
                run1 (fun b ->
                    emit_u8 b Encoding_spec.escape;
                    emit_u8 b second;
                    emit_u8 b ((3 lsl 6) lor (Reg.F.number f lsl 3)))
            | _ -> None);
      ]
  | Cvtsi ->
      [
        tmpl "cvtsi" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| Freg f |], [| rm |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b 0x40;
                        emit_modrm b ~ext:(Reg.F.number f) rm))
            | _ -> None);
      ]
  | Cvtfi ->
      [
        tmpl "cvtfi" (fun ~pc:_ ~prefix_len:_ i ->
            match (i.Insn.dsts, i.Insn.srcs) with
            | [| (Reg _ as r) |], [| Freg f |] ->
                opt_of_not_found (fun () ->
                    run1 (fun b ->
                        emit_u8 b Encoding_spec.escape;
                        emit_u8 b 0x41;
                        emit_modrm b ~ext:(Reg.F.number f) r))
            | _ -> None);
      ]
  | Ccall ->
      [
        tmpl "ccall" (fun ~pc:_ ~prefix_len:_ i ->
            match i.Insn.srcs with
            | [| Imm id |] ->
                run1 (fun b ->
                    emit_u8 b Encoding_spec.escape;
                    emit_u8 b 0xC0;
                    emit_u32 b id)
            | _ -> None);
      ]

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

(** [encode ~pc i] encodes [i] for placement at address [pc].  Walks the
    opcode's templates most-compact first and emits the first match.
    [~long:true] skips the rel8 forms of [jmp]/[jcc], producing a fixed
    4-byte displacement that a code cache can re-patch in place. *)
let encode ?(long = false) ~pc (i : Insn.t) : (Bytes.t, error) result =
  match Insn.validate i with
  | Error e -> Error (Invalid_shape e)
  | Ok () ->
      let prefix_len = if i.prefixes land Insn.prefix_lock <> 0 then 1 else 0 in
      let skip_short t =
        long && (t.tname = "jcc_rel8" || t.tname = "jmp_rel8")
      in
      let rec walk = function
        | [] ->
            Error
              (No_template
                 (Fmt.str "%a (%d srcs, %d dsts)" Opcode.pp i.opcode
                    (Insn.num_srcs i) (Insn.num_dsts i)))
        | t :: rest when skip_short t -> walk rest
        | t :: rest -> (
            match t.try_encode ~pc ~prefix_len i with
            | Some body ->
                if prefix_len = 0 then Ok body
                else begin
                  let full = Bytes.create (Bytes.length body + 1) in
                  Bytes.set full 0 (Char.chr Encoding_spec.lock_prefix);
                  Bytes.blit body 0 full 1 (Bytes.length body);
                  Ok full
                end
            | None -> walk rest)
      in
      walk (templates_of i)

let encode_exn ?long ~pc i =
  match encode ?long ~pc i with Ok b -> b | Error e -> raise (Encode_error e)

(** Length the instruction will occupy when encoded at [pc]. *)
let length ?long ~pc i = Bytes.length (encode_exn ?long ~pc i)

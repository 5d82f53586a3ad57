(** SynISA instruction encoder.

    Encoding walks an opcode's forms in {!Encoding_spec}'s table, most
    compact first, and emits the first one whose fields the explicit
    operands fit (operand kinds, immediate and displacement ranges) —
    the template-matching encode the paper describes for IA-32.  Direct
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
(* ModRM, SIB and displacement                                        *)
(* ------------------------------------------------------------------ *)

open Encoding_spec

(* A memory operand has no encoding with %esp as its index or with a
   scale other than 1, 2, 4 or 8. *)
let mem_encodable (m : Operand.mem) =
  match m.index with
  | Some (r, s) -> (not (Reg.equal r Reg.Esp)) && (s = 1 || s = 2 || s = 4 || s = 8)
  | None -> true

(* mod for a memory operand with a base: no displacement (never for
   %ebp, whose mod=0 slot means "no base"), disp8 or disp32 *)
let disp_mod base disp =
  if disp = 0 && not (Reg.equal base Reg.Ebp) then 0 else if fits_i8 disp then 1 else 2

(* bytes of ModRM, SIB and displacement for an rm operand *)
let modrm_len : Operand.t -> int = function
  | Mem { base = None; index = None; _ } -> 5
  | Mem { base = None; index = Some _; _ } -> 6
  | Mem { base = Some b; index; disp } ->
      let sib = if index = None && not (Reg.equal b Reg.Esp) then 0 else 1 in
      1 + sib + (match disp_mod b disp with 0 -> 0 | 1 -> 1 | _ -> 4)
  | _ -> 1

let put b o v = Bytes.set b o (Char.unsafe_chr (v land 0xFF))
let put_u32 b o v = Bytes.set_int32_le b o (Int32.of_int v)

let put_modrm b o md ext rm = put b o ((md lsl 6) lor (ext lsl 3) lor rm)

let put_sib b o (index : (Reg.t * int) option) base =
  let s, i = match index with Some (r, s) -> (s, Reg.number r) | None -> (1, 4) in
  let scale = match s with 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3 in
  put b o ((scale lsl 6) lor (i lsl 3) lor base)

(* Write ModRM (reg field [ext]), SIB and displacement for [rm] at [o]. *)
let write_modrm b o ~ext (rm : Operand.t) =
  match rm with
  | Reg r -> put_modrm b o 3 ext (Reg.number r)
  | Freg f -> put_modrm b o 3 ext (Reg.F.number f)
  | Mem { base = None; index = None; disp } ->
      put_modrm b o 0 ext 5;
      put_u32 b (o + 1) disp
  | Mem { base = None; index; disp } ->
      put_modrm b o 0 ext 4;
      put_sib b (o + 1) index 5;
      put_u32 b (o + 2) disp
  | Mem { base = Some r; index; disp } ->
      let md = disp_mod r disp in
      let d =
        if index = None && not (Reg.equal r Reg.Esp) then (put_modrm b o md ext (Reg.number r); o + 1)
        else (put_modrm b o md ext 4; put_sib b (o + 1) index (Reg.number r); o + 2)
      in
      if md = 1 then put b d disp else if md = 2 then put_u32 b d disp
  | Imm _ | Target _ -> put_modrm b o 3 ext 0 (* no rm operand: see [rm_of] *)

(* ------------------------------------------------------------------ *)
(* Fixed-form branches                                                *)
(* ------------------------------------------------------------------ *)

(* The long [jmp]/[jcc] forms have one fixed shape: opcode byte(s) and
   a rel32 from the end of the instruction.  A code cache writes exit
   branches and stub jumps straight from these writers, and re-targets
   them by rewriting only the rel32; they write exactly the bytes the
   encoder's [jmp_rel32]/[jcc_rel32] forms do. *)

let jmp_rel32_len = 5
let jcc_rel32_len = 6

(* [target - next_pc], wrapped to 32 bits exactly as [put_u32] does *)
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
(* Form matching                                                      *)
(* ------------------------------------------------------------------ *)

(* Does operand [x] fit [field]?  [next_pc] is the end of the
   instruction, which is fixed for the branch forms. *)
let fits ~long ~next_pc field (x : Operand.t) =
  match (field, x) with
  | (Reg_gpr | Rm_gpr | Plus_r), Reg _ | Rm, Reg _ -> true
  | (Reg_fp | Rm_fp), Freg _ -> true
  | (Rm | Rm_mem), Mem m -> mem_encodable m
  | Imm8s, Imm n -> fits_i8 n
  | Imm8u, Imm n -> n >= 0 && n < 256
  | Imm32, Imm _ | Rel32, Target _ -> true
  | Rel8, Target t -> (not long) && fits_i8 (to_i32 (t - next_pc))
  | Fixed r, x -> Operand.equal r x
  | _ -> false

(* The first of [forms] from [k] on that the explicit operands [x0],
   [x1] fit, or -1; [prefix] is the lock prefix's length. *)
let rec find ~long ~pc ~prefix forms k x0 x1 =
  if k = Array.length forms then -1
  else
    let r = forms.(k) in
    let next_pc = pc + prefix + opcode_len r + r.tail in
    let n = Array.length r.fields in
    if (n < 1 || fits ~long ~next_pc r.fields.(0) x0)
       && (n < 2 || fits ~long ~next_pc r.fields.(1) x1)
    then k
    else find ~long ~pc ~prefix forms (k + 1) x0 x1

let number : Operand.t -> int = function
  | Reg r -> Reg.number r
  | Freg f -> Reg.F.number f
  | _ -> 0

(* explicit operand [k], given the first two *)
let nth k x0 x1 = if k = 0 then x0 else x1

(* a form with no rm operand encodes its ModRM register-direct, rm 0 *)
let rm_of r x0 x1 = if r.rm_slot < 0 then Insn.no_operand else nth r.rm_slot x0 x1

let form_len ~prefix r x0 x1 =
  prefix + opcode_len r + (if r.modrm then modrm_len (rm_of r x0 x1) else 0) + r.tail

(* Write form [r] with explicit operands [x0], [x1], placed at [pc]. *)
let write_form ~pc ~prefix r x0 x1 =
  let len = form_len ~prefix r x0 x1 in
  let b = Bytes.create len in
  if prefix > 0 then put b 0 lock_prefix;
  if r.escaped then put b prefix escape;
  let o = prefix + opcode_len r in
  put b (o - 1) (if r.plus_slot < 0 then r.byte else r.byte + number (nth r.plus_slot x0 x1));
  if r.modrm then begin
    let ext = if r.reg_slot < 0 then 0 else number (nth r.reg_slot x0 x1) in
    write_modrm b o ~ext (rm_of r x0 x1)
  end;
  if r.tail_slot >= 0 then begin
    let v =
      match nth r.tail_slot x0 x1 with
      | Target t -> t - (pc + len)
      | x -> Operand.get_imm x
    in
    if r.tail = 1 then put b (len - 1) v else put_u32 b (len - 4) v
  end;
  b

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let prefix_len (i : Insn.t) = if i.prefixes land Insn.prefix_lock <> 0 then 1 else 0

(* The form [i] encodes in at [pc].  Validation comes first: the
   explicit operands of a malformed instruction may not exist. *)
let select ~long ~pc (i : Insn.t) =
  match Insn.validate i with
  | Error e -> Error (Invalid_shape e)
  | Ok () ->
      let forms = forms_of i.opcode in
      let k =
        find ~long ~pc ~prefix:(prefix_len i) forms 0 (Insn.explicit i 0) (Insn.explicit i 1)
      in
      if k < 0 then
        Error
          (No_template
             (Fmt.str "%a (%d srcs, %d dsts)" Opcode.pp i.opcode
                (Insn.num_srcs i) (Insn.num_dsts i)))
      else Ok forms.(k)

(** [encode ~pc i] encodes [i] for placement at address [pc]: the first
    of its opcode's forms, most compact first, that its operands fit.
    [~long:true] skips the rel8 forms of [jmp]/[jcc], producing a fixed
    4-byte displacement that a code cache can re-patch in place. *)
let encode ?(long = false) ~pc (i : Insn.t) : (Bytes.t, error) result =
  match select ~long ~pc i with
  | Ok r -> Ok (write_form ~pc ~prefix:(prefix_len i) r (Insn.explicit i 0) (Insn.explicit i 1))
  | Error e -> Error e

let encode_exn ?long ~pc i =
  match encode ?long ~pc i with Ok b -> b | Error e -> raise (Encode_error e)

(** Length the instruction will occupy when encoded at [pc]. *)
let length ?(long = false) ~pc i =
  match select ~long ~pc i with
  | Ok r -> form_len ~prefix:(prefix_len i) r (Insn.explicit i 0) (Insn.explicit i 1)
  | Error e -> raise (Encode_error e)

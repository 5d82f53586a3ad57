(** Fully-decoded SynISA instructions.

    An [Insn.t] is the Level-3/4 view of an instruction: opcode,
    prefixes, and explicit source/destination operand arrays *including
    implicit operands* (e.g. [push] names [%esp] in both its sources and
    destinations).  [of_explicit] takes only the explicit operands and
    fills in the implicit ones, and [explicit] reads them back: together
    they are the ground truth for operand conventions, shared by the
    assembler, the encoder, the decoder, the disassembler, and (through
    the [mk_*] constructors) the interpreter and the DynamoRIO
    instruction-creation macros. *)

type t = {
  opcode : Opcode.t;
  prefixes : int;  (** bit 0 = lock prefix (semantic no-op, kept intact) *)
  srcs : Operand.t array;
  dsts : Operand.t array;
}

let prefix_lock = 0x1

let make ?(prefixes = 0) opcode ~srcs ~dsts = { opcode; prefixes; srcs; dsts }

let num_srcs i = Array.length i.srcs
let num_dsts i = Array.length i.dsts
let src i n = i.srcs.(n)
let dst i n = i.dsts.(n)
let eflags i = Opcode.eflags i.opcode
let is_cti i = Opcode.is_cti i.opcode

let equal (a : t) (b : t) =
  Opcode.equal a.opcode b.opcode
  && a.prefixes = b.prefixes
  && Array.length a.srcs = Array.length b.srcs
  && Array.length a.dsts = Array.length b.dsts
  && Array.for_all2 Operand.equal a.srcs b.srcs
  && Array.for_all2 Operand.equal a.dsts b.dsts

(* ------------------------------------------------------------------ *)
(* Explicit operands                                                  *)
(* ------------------------------------------------------------------ *)

(* The explicit operands are the ones an assembly line names, dst
   first; the rest are implicit: [%esp] for the stack instructions,
   [%eax]/[%edx] for [idiv], and a two-address destination read back
   as a source.  [of_explicit] fills in the implicit ones; [explicit]
   is its inverse on valid instructions. *)

let esp = Operand.Reg Reg.Esp
let eax = Operand.Reg Reg.Eax
let edx = Operand.Reg Reg.Edx

let arity : Opcode.t -> int = function
  | Ret | Nop | Hlt | Pushf | Popf -> 0
  | Inc | Dec | Neg | Not | Fabs | Fneg | Fsqrt | Idiv | Push | Pop | In | Out
  | Jmp | JmpInd | Jcc _ | Call | CallInd | Ccall ->
      1
  | _ -> 2

(* An FP two-address instruction holds its destination register on the
   source side in a block of its own: Table 2's memory column counts
   the blocks of decoded instructions. *)
let unshared = function Operand.Freg f -> Operand.Freg f | x -> x

let of_explicit (op : Opcode.t) x0 x1 =
  match op with
  | Mov | Movzx8 | Movzx16 | Lea | Fld | Fst | Fmov | Cvtsi | Cvtfi ->
      make op ~srcs:[| x1 |] ~dsts:[| x0 |]
  | Add | Adc | Sub | Sbb | And | Or | Xor | Imul | Shl | Shr | Sar ->
      make op ~srcs:[| x1; x0 |] ~dsts:[| x0 |]
  | Fadd | Fsub | Fmul | Fdiv -> make op ~srcs:[| x1; unshared x0 |] ~dsts:[| x0 |]
  | Cmp | Test | Fcmp -> make op ~srcs:[| x0; x1 |] ~dsts:[||]
  | Xchg -> make op ~srcs:[| x0; x1 |] ~dsts:[| x0; x1 |]
  | Inc | Dec | Neg | Not -> make op ~srcs:[| x0 |] ~dsts:[| x0 |]
  | Fabs | Fneg | Fsqrt -> make op ~srcs:[| unshared x0 |] ~dsts:[| x0 |]
  | Push | Call | CallInd -> make op ~srcs:[| x0; esp |] ~dsts:[| esp |]
  | Pop -> make op ~srcs:[| esp |] ~dsts:[| x0; esp |]
  | Idiv -> make op ~srcs:[| x0; eax |] ~dsts:[| eax; edx |]
  | Jmp | JmpInd | Jcc _ | Out | Ccall -> make op ~srcs:[| x0 |] ~dsts:[||]
  | In -> make op ~srcs:[||] ~dsts:[| x0 |]
  | Pushf | Popf | Ret -> make op ~srcs:[| esp |] ~dsts:[| esp |]
  | Nop | Hlt -> make op ~srcs:[||] ~dsts:[||]

let no_operand = Operand.Imm 0

let explicit i k =
  if k >= arity i.opcode then no_operand
  else
    match i.opcode with
    | Cmp | Test | Fcmp -> i.srcs.(k)
    | Xchg -> i.dsts.(k)
    | Idiv | Push | Out | Jmp | JmpInd | Jcc _ | Call | CallInd | Ccall -> i.srcs.(0)
    | _ -> if k = 0 then i.dsts.(0) else i.srcs.(0)

(* ------------------------------------------------------------------ *)
(* Constructors (explicit operands only; implicit operands filled in) *)
(* ------------------------------------------------------------------ *)

let unary op x = of_explicit op x no_operand

let mk_mov dst src = of_explicit Mov dst src
let mk_movzx8 dst src = of_explicit Movzx8 dst src
let mk_movzx16 dst src = of_explicit Movzx16 dst src
let mk_lea dst m = of_explicit Lea dst m
let mk_push src = unary Push src
let mk_pop dst = unary Pop dst
let mk_xchg a b = of_explicit Xchg a b
let mk_pushf () = of_explicit Pushf no_operand no_operand
let mk_popf () = of_explicit Popf no_operand no_operand

let mk_add dst src = of_explicit Add dst src
let mk_adc dst src = of_explicit Adc dst src
let mk_sub dst src = of_explicit Sub dst src
let mk_sbb dst src = of_explicit Sbb dst src
let mk_and dst src = of_explicit And dst src
let mk_or dst src = of_explicit Or dst src
let mk_xor dst src = of_explicit Xor dst src
let mk_imul dst src = of_explicit Imul dst src

let mk_inc rm = unary Inc rm
let mk_dec rm = unary Dec rm
let mk_neg rm = unary Neg rm
let mk_not rm = unary Not rm
let mk_cmp a b = of_explicit Cmp a b
let mk_test a b = of_explicit Test a b
let mk_idiv rm = unary Idiv rm

let mk_shl rm amt = of_explicit Shl rm amt
let mk_shr rm amt = of_explicit Shr rm amt
let mk_sar rm amt = of_explicit Sar rm amt

let mk_jmp tgt = unary Jmp (Operand.Target tgt)
let mk_jmp_ind rm = unary JmpInd rm
let mk_jcc c tgt = unary (Jcc c) (Operand.Target tgt)
let mk_call tgt = unary Call (Operand.Target tgt)
let mk_call_ind rm = unary CallInd rm
let mk_ret () = of_explicit Ret no_operand no_operand

let mk_fld f m = of_explicit Fld (Operand.Freg f) m
let mk_fst m f = of_explicit Fst m (Operand.Freg f)
let mk_fmov d s = of_explicit Fmov (Operand.Freg d) (Operand.Freg s)

let mk_fadd d s = of_explicit Fadd (Operand.Freg d) s
let mk_fsub d s = of_explicit Fsub (Operand.Freg d) s
let mk_fmul d s = of_explicit Fmul (Operand.Freg d) s
let mk_fdiv d s = of_explicit Fdiv (Operand.Freg d) s

let mk_fabs f = unary Fabs (Operand.Freg f)
let mk_fneg f = unary Fneg (Operand.Freg f)
let mk_fsqrt f = unary Fsqrt (Operand.Freg f)
let mk_fcmp a b = of_explicit Fcmp (Operand.Freg a) b
let mk_cvtsi f r = of_explicit Cvtsi (Operand.Freg f) r
let mk_cvtfi r f = of_explicit Cvtfi r (Operand.Freg f)

let mk_nop () = of_explicit Nop no_operand no_operand
let mk_hlt () = of_explicit Hlt no_operand no_operand
let mk_out src = unary Out src
let mk_in dst = unary In dst
let mk_ccall id = unary Ccall (Operand.Imm id)

(* ------------------------------------------------------------------ *)
(* Shape validation                                                   *)
(* ------------------------------------------------------------------ *)

type shape_error = string

let fits_i32 n = n >= -0x8000_0000 && n <= 0xFFFF_FFFF

(** [validate i] checks that [i]'s operands have a shape the encoder can
    materialise (register/memory/immediate positions per opcode, no
    memory-to-memory forms, immediates in range).  The encoder refuses
    instructions that fail validation. *)
let validate (i : t) : (unit, shape_error) result =
  let open Operand in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ok = Ok () in
  let rm = function Reg _ | Mem _ -> true | _ -> false in
  let rmi = function Reg _ | Mem _ | Imm _ -> true | _ -> false in
  let imm_ok = function Imm n -> fits_i32 n | _ -> true in
  let all_imm_ok =
    Array.for_all imm_ok i.srcs && Array.for_all imm_ok i.dsts
  in
  if not all_imm_ok then err "%s: immediate out of 32-bit range" (Opcode.name i.opcode)
  else
    let s = i.srcs and d = i.dsts in
    let two_rm_not_both_mem a b =
      if is_mem a && is_mem b then err "%s: memory-to-memory form" (Opcode.name i.opcode)
      else ok
    in
    match i.opcode with
    | Mov -> (
        match (d, s) with
        | [| dst |], [| src |] when rm dst && rmi src ->
            if is_imm src && is_mem dst then ok
            else two_rm_not_both_mem dst src
        | _ -> err "mov: expected dst=rm src=rm/imm")
    | Movzx8 | Movzx16 -> (
        match (d, s) with
        | [| Reg _ |], [| src |] when rm src -> ok
        | _ -> err "movzx: expected dst=reg src=rm")
    | Lea -> (
        match (d, s) with
        | [| Reg _ |], [| Mem _ |] -> ok
        | _ -> err "lea: expected dst=reg src=mem")
    | Push -> (
        match (d, s) with
        | [| Reg Reg.Esp |], [| src; Reg Reg.Esp |] when rmi src -> ok
        | _ -> err "push: expected src=rm/imm (+implicit esp)")
    | Pop -> (
        match (d, s) with
        | [| dst; Reg Reg.Esp |], [| Reg Reg.Esp |] when rm dst -> ok
        | _ -> err "pop: expected dst=rm (+implicit esp)")
    | Xchg -> (
        match (d, s) with
        | [| a; b |], [| a'; b' |]
          when Operand.equal a a' && Operand.equal b b' && is_reg a && rm b ->
            ok
        | _ -> err "xchg: expected reg, rm")
    | Pushf | Popf -> (
        match (d, s) with
        | [| Reg Reg.Esp |], [| Reg Reg.Esp |] -> ok
        | _ -> err "pushf/popf: implicit esp only")
    | Add | Adc | Sub | Sbb | And | Or | Xor -> (
        match (d, s) with
        | [| dst |], [| src; dst' |] when Operand.equal dst dst' && rm dst && rmi src ->
            two_rm_not_both_mem dst src
        | _ -> err "%s: expected dst=rm src=rm/imm" (Opcode.name i.opcode))
    | Imul -> (
        match (d, s) with
        | [| (Reg _ as dst) |], [| src; dst' |]
          when Operand.equal dst dst' && (rm src || is_imm src) ->
            ok
        | _ -> err "imul: expected dst=reg src=rm/imm")
    | Inc | Dec | Neg | Not -> (
        match (d, s) with
        | [| dst |], [| dst' |] when Operand.equal dst dst' && rm dst -> ok
        | _ -> err "%s: expected rm" (Opcode.name i.opcode))
    | Cmp | Test -> (
        match (d, s) with
        | [||], [| a; b |] when rm a && rmi b -> two_rm_not_both_mem a b
        | _ -> err "%s: expected a=rm b=rm/imm" (Opcode.name i.opcode))
    | Idiv -> (
        match (d, s) with
        | [| Reg Reg.Eax; Reg Reg.Edx |], [| src; Reg Reg.Eax |] when rm src -> ok
        | _ -> err "idiv: expected src=rm (+implicit eax/edx)")
    | Shl | Shr | Sar -> (
        match (d, s) with
        | [| dst |], [| amt; dst' |] when Operand.equal dst dst' && rm dst -> (
            match amt with
            (* like IA-32: any imm8 encodes; hardware masks to 5 bits *)
            | Imm n when n >= 0 && n < 256 -> ok
            | Reg Reg.Ecx -> ok
            | _ -> err "shift: amount must be imm8 or %%ecx")
        | _ -> err "shift: expected dst=rm amt")
    | Jmp | Jcc _ -> (
        match (d, s) with
        | [||], [| Target _ |] -> ok
        | _ -> err "%s: expected target" (Opcode.name i.opcode))
    | JmpInd -> (
        match (d, s) with
        | [||], [| src |] when rm src -> ok
        | _ -> err "jmp*: expected rm")
    | Call -> (
        match (d, s) with
        | [| Reg Reg.Esp |], [| Target _; Reg Reg.Esp |] -> ok
        | _ -> err "call: expected target (+implicit esp)")
    | CallInd -> (
        match (d, s) with
        | [| Reg Reg.Esp |], [| src; Reg Reg.Esp |] when rm src -> ok
        | _ -> err "call*: expected rm (+implicit esp)")
    | Ret -> (
        match (d, s) with
        | [| Reg Reg.Esp |], [| Reg Reg.Esp |] -> ok
        | _ -> err "ret: implicit esp only")
    | Fld -> (
        match (d, s) with
        | [| Freg _ |], [| Mem _ |] -> ok
        | _ -> err "fld: expected dst=freg src=mem")
    | Fst -> (
        match (d, s) with
        | [| Mem _ |], [| Freg _ |] -> ok
        | _ -> err "fst: expected dst=mem src=freg")
    | Fmov -> (
        match (d, s) with
        | [| Freg _ |], [| Freg _ |] -> ok
        | _ -> err "fmov: expected freg, freg")
    | Fadd | Fsub | Fmul | Fdiv -> (
        match (d, s) with
        | [| (Freg _ as dst) |], [| src; dst' |]
          when Operand.equal dst dst' && (is_freg src || is_mem src) ->
            ok
        | _ -> err "%s: expected dst=freg src=freg/mem" (Opcode.name i.opcode))
    | Fabs | Fneg | Fsqrt -> (
        match (d, s) with
        | [| (Freg _ as dst) |], [| dst' |] when Operand.equal dst dst' -> ok
        | _ -> err "%s: expected freg" (Opcode.name i.opcode))
    | Fcmp -> (
        match (d, s) with
        | [||], [| Freg _; b |] when is_freg b || is_mem b -> ok
        | _ -> err "fcmp: expected freg, freg/mem")
    | Cvtsi -> (
        match (d, s) with
        | [| Freg _ |], [| src |] when rm src -> ok
        | _ -> err "cvtsi: expected dst=freg src=rm")
    | Cvtfi -> (
        match (d, s) with
        | [| Reg _ |], [| Freg _ |] -> ok
        | _ -> err "cvtfi: expected dst=reg src=freg")
    | Nop | Hlt -> (
        match (d, s) with
        | [||], [||] -> ok
        | _ -> err "%s: no operands" (Opcode.name i.opcode))
    | Out -> (
        match (d, s) with
        | [||], [| Reg _ |] | [||], [| Imm _ |] -> ok
        | _ -> err "out: expected reg or imm")
    | In -> (
        match (d, s) with
        | [| Reg _ |], [||] -> ok
        | _ -> err "in: expected reg")
    | Ccall -> (
        match (d, s) with
        | [||], [| Imm _ |] -> ok
        | _ -> err "ccall: expected imm id")


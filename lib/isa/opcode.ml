(** SynISA opcodes and their static metadata.

    The set is deliberately IA-32-flavoured: two-operand destructive
    arithmetic, implicit-operand stack and divide instructions, pervasive
    eflags side effects, and dedicated one-byte short forms for the hot
    encodings.  [Ccall] is a runtime-reserved pseudo-opcode used by the
    DynamoRIO layer to implement clean calls (client callbacks emitted
    into the code cache); application code never contains it.

    Everything static about an opcode is one {!row} in {!rows}: its
    name, eflags effects, control-flow kind, implicit stack traffic,
    effect class, memory-operand width and base cycles on both
    processor families.  The predicates the analyses, the optimizer,
    the trace builder and the cost model use are field reads of that
    row or derived from it. *)

include Opcode_t

let equal (a : t) (b : t) = a = b

(* ------------------------------------------------------------------ *)
(* Effects                                                            *)
(* ------------------------------------------------------------------ *)

(* Memory an opcode reads or writes at [%esp] beyond its Mem operands. *)
type stack = No_stack | Stack_read | Stack_write

(* What an opcode may do besides its declared register, memory-operand
   and flag writes.  [May_fault] covers [idiv]'s zero divisor, and
   [xchg] and [fst], which dead-write elimination has always kept;
   [Runtime] hands control to the host ([ccall]) or ends the thread
   ([hlt]). *)
type effect = Pure | May_fault | Port_io | Runtime

type row = {
  name : string;
  eflags : Eflags.mask;
  cti : cti_kind;
  stack : stack;
  effect : effect;
  width : int;        (* bytes a memory operand moves *)
  p4 : int;           (* base cycles on the Pentium 4 ... *)
  p3 : int;           (* ... and on the Pentium 3 *)
}

(* A dense index, 0 to [count - 1]: a match, so the lookup is a jump
   table. *)
let index : t -> int = function
  | Mov -> 0 | Movzx8 -> 1 | Movzx16 -> 2 | Lea -> 3 | Push -> 4 | Pop -> 5
  | Xchg -> 6 | Pushf -> 7 | Popf -> 8 | Add -> 9 | Adc -> 10 | Sub -> 11
  | Sbb -> 12 | Inc -> 13 | Dec -> 14 | Neg -> 15 | Cmp -> 16 | Imul -> 17
  | Idiv -> 18 | And -> 19 | Or -> 20 | Xor -> 21 | Not -> 22 | Test -> 23
  | Shl -> 24 | Shr -> 25 | Sar -> 26 | Jmp -> 27 | JmpInd -> 28 | Call -> 29
  | CallInd -> 30 | Ret -> 31 | Fld -> 32 | Fst -> 33 | Fmov -> 34 | Fadd -> 35
  | Fsub -> 36 | Fmul -> 37 | Fdiv -> 38 | Fabs -> 39 | Fneg -> 40 | Fsqrt -> 41
  | Fcmp -> 42 | Cvtsi -> 43 | Cvtfi -> 44 | Nop -> 45 | Hlt -> 46 | Out -> 47
  | In -> 48 | Ccall -> 49 | Jcc c -> 50 + Cond.number c

let count = 66

(* The rows.  Flags SynISA instructions leave "undefined" on IA-32
   (e.g. AF after shifts) are defined here as written-to-zero: a
   written flag is still a written flag for transformation safety, and
   determinism keeps the interpreter testable.  Cycles exclude
   memory-operand and branch-resolution extras; FP cycles are
   throughput costs (pipelined adds and multiplies issue every cycle or
   two, only divide and sqrt serialize); the runtime charges a clean
   call's cost explicitly. *)
let rows : row array =
  let open Eflags in
  let all = write_all and carry = union (reads [ CF ]) write_all in
  (* the paper's strength-reduction example hinges on this: inc/dec
     write every arithmetic flag EXCEPT CF, and pay a flag-merge
     penalty on the Pentium 4 *)
  let no_cf = writes [ PF; AF; ZF; SF; OF ] in
  let a = Array.make count None in
  let set (op, (name, eflags, cti, stack, effect, width, p4, p3)) =
    a.(index op) <- Some { name; eflags; cti; stack; effect; width; p4; p3 }
  in
  List.iter set
    [
      (Mov, ("mov", none, Not_cti, No_stack, Pure, 4, 1, 1));
      (Movzx8, ("movzx8", none, Not_cti, No_stack, Pure, 4, 1, 1));
      (Movzx16, ("movzx16", none, Not_cti, No_stack, Pure, 4, 1, 1));
      (Lea, ("lea", none, Not_cti, No_stack, Pure, 4, 1, 1));
      (Push, ("push", none, Not_cti, Stack_write, Pure, 4, 2, 2));
      (Pop, ("pop", none, Not_cti, Stack_read, Pure, 4, 2, 2));
      (Xchg, ("xchg", none, Not_cti, No_stack, May_fault, 4, 2, 2));
      (Pushf, ("pushf", read_all, Not_cti, Stack_write, Pure, 4, 8, 5));
      (Popf, ("popf", all, Not_cti, Stack_read, Pure, 4, 8, 5));
      (Add, ("add", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (Adc, ("adc", carry, Not_cti, No_stack, Pure, 4, 1, 1));
      (Sub, ("sub", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (Sbb, ("sbb", carry, Not_cti, No_stack, Pure, 4, 1, 1));
      (Inc, ("inc", no_cf, Not_cti, No_stack, Pure, 4, 4, 1));
      (Dec, ("dec", no_cf, Not_cti, No_stack, Pure, 4, 4, 1));
      (Neg, ("neg", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (Cmp, ("cmp", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (Imul, ("imul", all, Not_cti, No_stack, Pure, 4, 4, 4));
      (Idiv, ("idiv", all, Not_cti, No_stack, May_fault, 4, 24, 24));
      (And, ("and", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (Or, ("or", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (Xor, ("xor", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (* like IA-32: not does not touch flags *)
      (Not, ("not", none, Not_cti, No_stack, Pure, 4, 1, 1));
      (Test, ("test", all, Not_cti, No_stack, Pure, 4, 1, 1));
      (Shl, ("shl", all, Not_cti, No_stack, Pure, 4, 2, 1));
      (Shr, ("shr", all, Not_cti, No_stack, Pure, 4, 2, 1));
      (Sar, ("sar", all, Not_cti, No_stack, Pure, 4, 2, 1));
      (Jmp, ("jmp", none, Cti_direct_jmp, No_stack, Pure, 4, 1, 1));
      (JmpInd, ("jmp*", none, Cti_ind_jmp, No_stack, Pure, 4, 2, 2));
      (Call, ("call", none, Cti_direct_call, Stack_write, Pure, 4, 2, 2));
      (CallInd, ("call*", none, Cti_ind_call, Stack_write, Pure, 4, 2, 2));
      (Ret, ("ret", none, Cti_return, Stack_read, Pure, 4, 2, 2));
      (Fld, ("fld", none, Not_cti, No_stack, Pure, 8, 2, 2));
      (Fst, ("fst", none, Not_cti, No_stack, May_fault, 8, 2, 2));
      (Fmov, ("fmov", none, Not_cti, No_stack, Pure, 8, 1, 1));
      (Fadd, ("fadd", none, Not_cti, No_stack, Pure, 8, 1, 1));
      (Fsub, ("fsub", none, Not_cti, No_stack, Pure, 8, 1, 1));
      (Fmul, ("fmul", none, Not_cti, No_stack, Pure, 8, 2, 2));
      (Fdiv, ("fdiv", none, Not_cti, No_stack, Pure, 8, 20, 20));
      (Fabs, ("fabs", none, Not_cti, No_stack, Pure, 8, 1, 1));
      (Fneg, ("fneg", none, Not_cti, No_stack, Pure, 8, 1, 1));
      (Fsqrt, ("fsqrt", none, Not_cti, No_stack, Pure, 8, 25, 25));
      (* like comisd: ZF/PF/CF set, OF/AF/SF zeroed *)
      (Fcmp, ("fcmp", all, Not_cti, No_stack, Pure, 8, 3, 3));
      (Cvtsi, ("cvtsi", none, Not_cti, No_stack, Pure, 8, 4, 4));
      (Cvtfi, ("cvtfi", none, Not_cti, No_stack, Pure, 8, 4, 4));
      (Nop, ("nop", none, Not_cti, No_stack, Pure, 4, 1, 1));
      (Hlt, ("hlt", none, Cti_halt, No_stack, Runtime, 4, 1, 1));
      (Out, ("out", none, Not_cti, No_stack, Port_io, 4, 40, 40));
      (In, ("in", none, Not_cti, No_stack, Port_io, 4, 40, 40));
      (Ccall, ("ccall", none, Not_cti, No_stack, Runtime, 4, 0, 0));
    ];
  List.iter
    (fun c ->
      let m = reads (Cond.flags_read c) in
      set (Jcc c, ("j" ^ Cond.name c, m, Cti_cond, No_stack, Pure, 4, 1, 1)))
    Cond.all;
  Array.map Option.get a

let row op = Array.unsafe_get rows (index op)

let name op = (row op).name
let pp ppf o = Fmt.string ppf (name o)
let eflags op = (row op).eflags
let cti_kind op = (row op).cti
let mem_width op = (row op).width
let p4_cycles op = (row op).p4
let p3_cycles op = (row op).p3

(* ------------------------------------------------------------------ *)
(* Derived predicates                                                 *)
(* ------------------------------------------------------------------ *)

let is_cti o = cti_kind o <> Not_cti

(** Control transfers whose target is not a static constant: they go
    through the indirect-branch lookup when running out of a code cache. *)
let is_indirect_cti o =
  match cti_kind o with
  | Cti_ind_jmp | Cti_ind_call | Cti_return -> true
  | _ -> false

let is_call o =
  match cti_kind o with Cti_direct_call | Cti_ind_call -> true | _ -> false

let implicit_stack_read o = (row o).stack = Stack_read
let implicit_stack_write o = (row o).stack = Stack_write
let touches_stack o = (row o).stack <> No_stack

let side_effect_free o =
  let r = row o in
  r.effect = Pure && r.stack = No_stack && r.cti = Not_cti

let is_barrier o =
  let r = row o in
  r.cti <> Not_cti || r.effect = Port_io || r.effect = Runtime

module For_testing = struct
  let is_indirect_cti = is_indirect_cti
  let is_call = is_call
  let cti_kind = cti_kind
end

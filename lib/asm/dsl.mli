(** Combinator DSL for writing SynISA assembly in OCaml. *)

val program :
  ?entry:string ->
  name:string ->
  text:Ast.item list ->
  ?data:Ast.item list -> unit -> Ast.program

val label : string -> Ast.item

val align : int -> Ast.item

val bytes : string -> Ast.item

val word32 : int list -> Ast.item

val word32_lbl : string list -> Ast.item

val float64 : float list -> Ast.item

val space : int -> Ast.item

val eax : Isa.Operand.t

val ecx : Isa.Operand.t

val edx : Isa.Operand.t

val ebx : Isa.Operand.t

val esp : Isa.Operand.t

val ebp : Isa.Operand.t

val esi : Isa.Operand.t

val edi : Isa.Operand.t

val f0 : Isa.Reg.F.t

val f1 : Isa.Reg.F.t

val f2 : Isa.Reg.F.t

val f3 : Isa.Reg.F.t

val f4 : Isa.Reg.F.t

val f5 : Isa.Reg.F.t

val f6 : Isa.Reg.F.t

val f7 : Isa.Reg.F.t

val i : int -> Isa.Operand.t

val m :
  ?base:Isa.Operand.t ->
  ?index:Isa.Operand.t * int -> ?disp:int -> unit -> Isa.Operand.t
(** [m ~base ~index ~disp ()] — memory operand. *)

val mb : ?disp:int -> Isa.Operand.t -> Isa.Operand.t
(** [mb base ~disp] — simple base+disp memory operand. *)

val ins : (Ast.env -> Isa.Insn.t) -> Ast.item

val mov : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val movzx8 : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val movzx16 : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val lea : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val push : Isa.Operand.t -> Ast.item

val pop : Isa.Operand.t -> Ast.item

val xchg : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val pushf : Ast.item

val popf : Ast.item

val add : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val adc : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val sub : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val sbb : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val inc : Isa.Operand.t -> Ast.item

val dec : Isa.Operand.t -> Ast.item

val neg : Isa.Operand.t -> Ast.item

val not_ : Isa.Operand.t -> Ast.item

val cmp : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val test : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val and_ : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val or_ : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val xor : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val imul : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val idiv : Isa.Operand.t -> Ast.item

val shl : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val shr : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val sar : Isa.Operand.t -> Isa.Operand.t -> Ast.item

val nop : Ast.item

val hlt : Ast.item

val out : Isa.Operand.t -> Ast.item

val in_ : Isa.Operand.t -> Ast.item

val ret : Ast.item

val jmp_ind : Isa.Operand.t -> Ast.item

val call_ind : Isa.Operand.t -> Ast.item

val fld : Isa.Reg.F.t -> Isa.Operand.t -> Ast.item

val fst_ : Isa.Operand.t -> Isa.Reg.F.t -> Ast.item

val fmov : Isa.Reg.F.t -> Isa.Reg.F.t -> Ast.item

val fadd : Isa.Reg.F.t -> Isa.Operand.t -> Ast.item

val fsub : Isa.Reg.F.t -> Isa.Operand.t -> Ast.item

val fmul : Isa.Reg.F.t -> Isa.Operand.t -> Ast.item

val fdiv : Isa.Reg.F.t -> Isa.Operand.t -> Ast.item

val fabs : Isa.Reg.F.t -> Ast.item

val fneg : Isa.Reg.F.t -> Ast.item

val fsqrt : Isa.Reg.F.t -> Ast.item

val fcmp : Isa.Reg.F.t -> Isa.Operand.t -> Ast.item

val cvtsi : Isa.Reg.F.t -> Isa.Operand.t -> Ast.item

val cvtfi : Isa.Operand.t -> Isa.Reg.F.t -> Ast.item

val fr : Isa.Reg.F.t -> Isa.Operand.t

val jmp : string -> Ast.item

val call : string -> Ast.item

val j : Isa.Cond.t -> string -> Ast.item
(** [j cond "target"] — conditional branch, e.g. [j nz "loop"]. *)

val o : Isa.Cond.t

val no : Isa.Cond.t

val b : Isa.Cond.t

val nb : Isa.Cond.t

val z : Isa.Cond.t

val nz : Isa.Cond.t

val be : Isa.Cond.t

val nbe : Isa.Cond.t

val s : Isa.Cond.t

val ns : Isa.Cond.t

val p : Isa.Cond.t

val np : Isa.Cond.t

val l : Isa.Cond.t

val nl : Isa.Cond.t

val le : Isa.Cond.t

val nle : Isa.Cond.t

val li : Isa.Operand.t -> string -> Ast.item
(** [li r "label"] — load a label's address into a register. *)

val push_lbl : string -> Ast.item
(** [push_lbl "label"] — push a label's address (e.g. a return target). *)

val ld : Isa.Operand.t -> string -> Ast.item
(** [ld r "label"] — load the 32-bit word at a label. *)

val st : string -> Isa.Operand.t -> Ast.item
(** [st "label" src] — store a register to the word at a label. *)

(** Deterministic processor cost model.

    Captures exactly the asymmetries the paper's evaluation rests on: a
    processor-family knob ([inc] slower than [add 1] on the Pentium 4
    only), a return-address-stack predictor that mangled code-cache
    returns cannot use, a one-entry-per-site BTB for indirect jumps, a
    2-bit counter per conditional branch, and a small extra cost for
    taken transfers (the code-layout benefit of traces). *)

open Isa

include module type of struct include Cost_t end

val family_name : family -> string

val default_params : family -> t

val base_cycles : t -> Opcode.t -> int
(** Execution cycles excluding memory-operand and branch extras. *)

type predictor

val create_predictor : unit -> predictor
val reset_predictor : predictor -> unit

val cond_branch : t -> predictor -> site:int -> taken:bool -> int
val direct_jump : t -> int
val ras_push : predictor -> int -> unit
val ret_branch : t -> predictor -> target:int -> int
val indirect_jump : t -> predictor -> site:int -> target:int -> int

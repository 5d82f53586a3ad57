(** 32-bit integer arithmetic with IA-32-style eflags computation.
    Values are unsigned ints in [0, 2{^32}); every helper returns the
    result together with the updated flags.  Flags IA-32 leaves
    undefined are given fixed deterministic definitions. *)

open Isa

val mask32 : int
val wrap : int -> int
val to_signed : int -> int
val of_signed : int -> int

type result = { value : int; flags : Eflags.t }

val add : ?carry_in:bool -> int -> int -> Eflags.t -> result
val sub : ?borrow_in:bool -> int -> int -> Eflags.t -> result

val inc : int -> Eflags.t -> result
(** Like [add 1] but CF is preserved — the asymmetry the
    strength-reduction client must respect. *)

val dec : int -> Eflags.t -> result
val land_ : int -> int -> Eflags.t -> result
val lor_ : int -> int -> Eflags.t -> result
val lxor_ : int -> int -> Eflags.t -> result
val neg : int -> Eflags.t -> result
val shl : int -> int -> Eflags.t -> result
val shr : int -> int -> Eflags.t -> result
val sar : int -> int -> Eflags.t -> result
val imul : int -> int -> Eflags.t -> result

exception Division_by_zero

val idiv : eax:int -> int -> Eflags.t -> int * int * Eflags.t
(** [(quotient, remainder, flags)]; truncated signed division. *)

val fcmp : float -> float -> Eflags.t -> Eflags.t
(** comisd-style: unordered sets ZF/PF/CF; [>] clears all; [<] sets CF;
    [=] sets ZF. *)

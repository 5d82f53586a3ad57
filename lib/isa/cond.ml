(** Branch conditions for [jcc], mirroring the sixteen IA-32 condition
    codes.  The 4-bit encoding matches IA-32: bit 0 negates the base
    predicate, which is why [invert] is a single XOR on real hardware —
    SynISA keeps that property so trace building can flip a branch
    in-place. *)

type t =
  | O   (** overflow: OF *)
  | NO  (** not overflow *)
  | B   (** below (unsigned <): CF *)
  | NB  (** not below (unsigned >=) *)
  | Z   (** zero / equal: ZF *)
  | NZ  (** not zero / not equal *)
  | BE  (** below or equal (unsigned <=): CF|ZF *)
  | NBE (** above (unsigned >) *)
  | S   (** sign: SF *)
  | NS  (** not sign *)
  | P   (** parity: PF *)
  | NP  (** not parity *)
  | L   (** less (signed <): SF<>OF *)
  | NL  (** not less (signed >=) *)
  | LE  (** less or equal (signed <=): ZF or SF<>OF *)
  | NLE (** greater (signed >) *)

let all = [ O; NO; B; NB; Z; NZ; BE; NBE; S; NS; P; NP; L; NL; LE; NLE ]

let number = function
  | O -> 0 | NO -> 1 | B -> 2 | NB -> 3
  | Z -> 4 | NZ -> 5 | BE -> 6 | NBE -> 7
  | S -> 8 | NS -> 9 | P -> 10 | NP -> 11
  | L -> 12 | NL -> 13 | LE -> 14 | NLE -> 15

let of_number = function
  | 0 -> O | 1 -> NO | 2 -> B | 3 -> NB
  | 4 -> Z | 5 -> NZ | 6 -> BE | 7 -> NBE
  | 8 -> S | 9 -> NS | 10 -> P | 11 -> NP
  | 12 -> L | 13 -> NL | 14 -> LE | 15 -> NLE
  | n -> invalid_arg (Printf.sprintf "Cond.of_number: %d" n)

let invert c = of_number (number c lxor 1)

let name = function
  | O -> "o" | NO -> "no" | B -> "b" | NB -> "nb"
  | Z -> "z" | NZ -> "nz" | BE -> "be" | NBE -> "nbe"
  | S -> "s" | NS -> "ns" | P -> "p" | NP -> "np"
  | L -> "l" | NL -> "nl" | LE -> "le" | NLE -> "nle"

(** Flags consulted by the condition (for eflags effect metadata). *)
let flags_read : t -> Eflags.flag list = function
  | O | NO -> [ OF ]
  | B | NB -> [ CF ]
  | Z | NZ -> [ ZF ]
  | BE | NBE -> [ CF; ZF ]
  | S | NS -> [ SF ]
  | P | NP -> [ PF ]
  | L | NL -> [ SF; OF ]
  | LE | NLE -> [ ZF; SF; OF ]

(** [eval c fl] decides the condition against a concrete eflags value. *)
let eval (c : t) (fl : Eflags.t) : bool =
  let f x = Eflags.is_set fl x in
  match c with
  | O -> f OF          | NO -> not (f OF)
  | B -> f CF          | NB -> not (f CF)
  | Z -> f ZF          | NZ -> not (f ZF)
  | BE -> f CF || f ZF | NBE -> not (f CF || f ZF)
  | S -> f SF          | NS -> not (f SF)
  | P -> f PF          | NP -> not (f PF)
  | L -> f SF <> f OF  | NL -> f SF = f OF
  | LE -> f ZF || f SF <> f OF
  | NLE -> not (f ZF || f SF <> f OF)

let equal (a : t) (b : t) = a = b

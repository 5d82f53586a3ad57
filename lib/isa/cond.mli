(** Branch conditions for [jcc] — the sixteen IA-32 condition codes.
    Bit 0 of the encoding negates the base predicate, so {!invert} is a
    single XOR; trace building relies on this to flip a branch
    in-place. *)

type t =
  | O   (** overflow *)
  | NO
  | B   (** below: unsigned [<] *)
  | NB
  | Z   (** zero / equal *)
  | NZ
  | BE  (** below or equal: unsigned [<=] *)
  | NBE
  | S   (** sign *)
  | NS
  | P   (** parity *)
  | NP
  | L   (** less: signed [<] *)
  | NL
  | LE  (** less or equal: signed [<=] *)
  | NLE

val all : t list

val number : t -> int
(** 4-bit encoding, matching IA-32. *)

val invert : t -> t
(** Logical negation of the predicate; involutive. *)

val name : t -> string

val flags_read : t -> Eflags.flag list
(** The flags this condition consults. *)

val eval : t -> Eflags.t -> bool
(** Decide the condition against a concrete flags value. *)

val equal : t -> t -> bool

(** General-purpose registers of SynISA.

    Eight 32-bit registers in the IA-32 mould; numbers match their
    3-bit ModRM/SIB encoding.  [Esp] is the stack pointer by
    convention. *)

type t =
  | Eax
  | Ecx
  | Edx
  | Ebx
  | Esp
  | Ebp
  | Esi
  | Edi

val all : t list

val number : t -> int
(** 3-bit encoding, 0–7. *)

val of_number : int -> t
(** Inverse of {!number}.  @raise Invalid_argument outside 0–7. *)

val name : t -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Floating-point registers: a flat bank of eight 64-bit registers
    ([f0]–[f7]; SSE2-flavoured, not an x87 stack). *)
module F : sig
  type t

  val make : int -> t
  (** @raise Invalid_argument outside 0–7. *)

  val number : t -> int
  val all : t list
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

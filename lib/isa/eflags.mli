(** The SynISA [eflags] register: the six IA-32 arithmetic status
    flags, plus read/write {e effect masks} used by transformation
    safety analyses (the paper's [EFLAGS_READ_CF]-style constants). *)

type flag = CF | PF | AF | ZF | SF | OF

val bit : flag -> int

(** {2 Concrete flag-register values} *)

type t = int
(** OR of {!bit} for each set flag. *)

val empty : t
val is_set : t -> flag -> bool
val set : t -> flag -> t
val clear : t -> flag -> t
val update : t -> flag -> bool -> t

val all_mask : int
(** Bit mask covering all six flags. *)

(** {2 Read/write effect masks} *)

type mask = int
(** Encodes a set of flags read and a set of flags written. *)

val none : mask
val read_all : mask
val write_all : mask
val reads : flag list -> mask
val writes : flag list -> mask
val union : mask -> mask -> mask
val reads_flag : mask -> flag -> bool
val writes_flag : mask -> flag -> bool

val read_mask : mask -> int
(** Flags read, as a flag-register bit mask. *)

val write_mask : mask -> int
(** Flags written, as a flag-register bit mask. *)

val pp_mask : Format.formatter -> mask -> unit

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val write_set : mask -> flag list
end

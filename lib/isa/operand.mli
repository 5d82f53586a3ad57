(** Instruction operands: registers, immediates, [base + index*scale +
    disp] memory references, and absolute direct-branch targets.
    Storing CTI targets as absolute addresses (materialized as
    pc-relative displacements only at encode time) is what lets a code
    cache re-encode a branch at any address without fixups. *)

type mem = {
  base : Reg.t option;
  index : (Reg.t * int) option;  (** register and scale in 1/2/4/8 *)
  disp : int;                    (** signed 32-bit displacement *)
}

type t =
  | Reg of Reg.t
  | Freg of Reg.F.t
  | Imm of int                   (** signed immediate fitting 32 bits *)
  | Mem of mem
  | Target of int                (** absolute code address of a direct CTI *)

val mem : ?base:Reg.t -> ?index:Reg.t * int -> ?disp:int -> unit -> t
(** @raise Invalid_argument when the scale is not 1, 2, 4 or 8. *)

val mem_abs : int -> t
(** Absolute-address memory operand. *)

val mem_base : ?disp:int -> Reg.t -> t
val mem_bi : ?disp:int -> Reg.t -> Reg.t * int -> t

val is_reg : t -> bool
val is_mem : t -> bool
val is_imm : t -> bool
val is_freg : t -> bool

val get_imm : t -> int
val get_target : t -> int

val mem_regs : mem -> Reg.t list
(** Registers read to form the effective address. *)

val regs_used : t -> Reg.t list

val equal_mem : mem -> mem -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** SynISA opcodes and their static metadata: one effects row per
    opcode holding its name, eflags effects, control-flow kind,
    implicit stack traffic, effect class, memory-operand width and base
    cycles on both processor families.  [Ccall] is reserved for the
    runtime (clean calls emitted into code caches); application code
    never contains it. *)

include module type of struct include Opcode_t end

val equal : t -> t -> bool

val count : int
(** The number of opcodes, each [Jcc] condition counted: 66. *)

val index : t -> int
(** A dense index, [0] to [count - 1], for per-opcode arrays. *)

(** {2 The effects row}

    Each accessor is one jump table and one array read, and allocates
    nothing. *)

val name : t -> string
val pp : Format.formatter -> t -> unit

val eflags : t -> Eflags.mask
(** Read/write effects on the flags register.  Flags IA-32 leaves
    undefined are defined as written, deterministically. *)

val mem_width : t -> int
(** Bytes a memory operand moves: 8 for the FP opcodes, 4 otherwise. *)

val p4_cycles : t -> int
val p3_cycles : t -> int
(** Base execution cycles on the Pentium 4 and the Pentium 3, excluding
    memory-operand and branch-resolution extras. *)

(** {2 Derived predicates} *)

val is_cti : t -> bool

val implicit_stack_read : t -> bool
val implicit_stack_write : t -> bool
(** Memory read or written at [%esp] beyond the Mem operands ([pop],
    [ret]; [push], [call]), moving [%esp]. *)

val touches_stack : t -> bool
(** Either of the two: the opcode moves [%esp]. *)

val side_effect_free : t -> bool
(** The only effects are the declared register, memory-operand and flag
    writes: no stack traffic, control transfer, fault, I/O or runtime
    call.  Dead-write elimination may delete these. *)

val is_barrier : t -> bool
(** Effects no liveness transfer summarises: control transfers, port
    I/O and runtime calls ([ccall], [hlt]). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val is_indirect_cti : t -> bool
  (** Transfers resolved through the indirect-branch lookup when running
      out of a code cache ([jmp*], [call*], [ret]). *)

  val is_call : t -> bool

  val cti_kind : t -> cti_kind
end

(** Eflags liveness over linear code — the analysis Level 2 exists to
    make cheap (paper §3.1), used to decide whether inserted code must
    preserve the application's flags. *)

val dead_after : Instr.t option -> bool
(** True when the application flags are provably dead at the program
    point before the given instruction: walking forward, every flag is
    written before read without leaving the fragment.  List end and
    exit CTIs are conservative live boundaries. *)

val flags_dead_after : mask:int -> Instr.t option -> bool
(** Like {!dead_after} but for a subset of flags: true when every flag
    in [mask] is written before read, without leaving the fragment
    (what inc→add needs for CF alone). *)

(** {1 Backward register/memory liveness (DESIGN.md §6.4)} *)

type live = {
  live_regs : int;   (** GPR bit set, bit = {!Isa.Reg.number} *)
  live_fregs : int;  (** FP-register bit set, bit = {!Isa.Reg.F.number} *)
  live_flags : int;  (** eflags mask, {!Isa.Eflags} bits *)
}
(** Liveness at a program point, as bit sets. *)

val live_reg : live -> Isa.Reg.t -> bool
val live_freg : live -> Isa.Reg.F.t -> bool

val backward_liveness : Instrlist.t -> (Instr.t * live) list
(** One backward walk over the list, pairing every instruction with the
    registers, FP registers and flags live {e after} it (returned in
    program order).  Exit CTIs, clean calls, I/O, bundles and the list
    end are all-live boundaries, mirroring {!dead_after}'s
    conservatism. *)

val may_write_mem : Isa.Insn.t -> Isa.Operand.mem -> int -> bool
(** [may_write_mem insn m w] — may executing [insn] write memory that a
    [w]-byte access at [m] overlaps?  Counts its Mem destinations and
    an implicit stack write (the word at [esp-4]).  The alias rule is
    conservative: identical address expressions are disjoint exactly
    when their displacement ranges cannot overlap; different bases may
    point anywhere. *)

val store_dead_after : mem:Isa.Operand.mem -> width:int -> Instr.t option -> bool
(** True when a [width]-byte store to [mem] is provably dead at the
    program point before the given instruction: an equal-address store
    of at least the same width overwrites it before anything could
    observe it (an aliasing read, a barrier leaving the fragment, an
    implicit stack access, or a write to one of its address
    registers). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val written_before_read : Instr.t option -> int
  (** The set of flags certainly written before any read, as a
      flag-register bit mask. *)
end

(** The client-facing API (paper §3.2, §3.4, §3.5): transparent I/O,
    storage and allocation, spill slots and TLS operands for emitted
    code, processor identification, clean calls, custom exit stubs,
    trace-head marking, and the adaptive-optimization pair
    {!decode_fragment} / {!replace_fragment}. *)

open Isa
open Types

(** {2 Transparency: I/O and storage apart from the application} *)

val printf : runtime -> ('a, unit, string, unit) format4 -> 'a
val client_output : runtime -> string
val set_global_field : runtime -> exn -> unit
val get_global_field : runtime -> exn option

val alloc_global : runtime -> bytes:int -> int
(** Zero-initialized storage in the runtime's own region, invisible to
    the application; usable host-side and as an absolute-memory operand
    in emitted code (low-overhead profiling counters). *)

val global_opnd : int -> Operand.t
val read_global : runtime -> int -> int
val write_global : runtime -> int -> int -> unit
val set_thread_field : context -> exn -> unit
val get_thread_field : context -> exn option

(** {2 Processor identification} *)

val proc_get_family : runtime -> Vm.Cost.family

(** {2 Spill slots and TLS operands for emitted code} *)

val spill_slot_opnd : context -> int -> Operand.t
val save_reg : context -> Reg.t -> int -> Instr.t
val restore_reg : context -> Reg.t -> int -> Instr.t
val tls_field_opnd : context -> Operand.t
val read_tls_field : context -> int
val write_tls_field : context -> int -> unit

val read_ibl_target : context -> int
(** The in-flight indirect-branch target (what Figure 4's profiling
    routine reads). *)

val ibl_target_opnd : context -> Operand.t

(** {2 Clean calls} *)

val clean_call : runtime -> ccall_fn -> Instr.t
(** An instruction that saves the application context and invokes the
    closure host-side; the closure may call any API routine, including
    {!replace_fragment} on its own fragment. *)

(** {2 Custom exit stubs (§3.2)} *)

val set_custom_stub : ?always:bool -> Instr.t -> Instrlist.t -> unit
(** Prepend [il] to the exit's stub; with [~always:true] the exit goes
    through the stub even when linked.  Stub ILs may themselves contain
    exit CTIs (one level deep) — how "code at the bottom of the trace"
    chains are built. *)

val get_custom_stub : Instr.t -> (Instrlist.t * bool) option

(** {2 Custom traces (§3.5)} *)

val mark_trace_head : context -> int -> unit

(** {2 Adaptive optimization (§3.4)} *)

val decode_fragment : context -> int -> Instrlist.t option
(** Rebuild a fragment's client-view InstrList from the code cache. *)

val replace_fragment : context -> int -> Instrlist.t -> bool
(** Emit the IL as the fragment's new body and atomically redirect all
    links; the old body survives until the executing thread leaves it. *)

(** {2 Core optimizer passes (DESIGN.md §6.4)}

    Clients reach the in-core strength-reduction pass directly instead
    of reimplementing it in their hooks.  It runs over the IL in place
    and returns how many rewrites it applied. *)

val opt_strength_reduce : runtime -> Instrlist.t -> int
(** Architecture-gated: a no-op (returns 0) unless the machine is a
    Pentium 4, where [inc]/[dec] are slower than [add]/[sub]. *)

(** {2 Introspection} *)

val dump_cache : runtime -> string
(** Disassembled dump of every live fragment with its exits and link
    state. *)

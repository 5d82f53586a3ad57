(** The client-facing API (paper §3.2, §3.4, §3.5).

    Everything a DynamoRIO client may call: transparent I/O and
    storage, register spill slots, thread-local fields, processor
    identification, custom exit stubs, clean calls, trace-head marking,
    and the adaptive-optimization pair
    {!decode_fragment} / {!replace_fragment}. *)

open Isa
open Types

(* ------------------------------------------------------------------ *)
(* Transparency: I/O and storage that never touch application state   *)
(* ------------------------------------------------------------------ *)

(** [printf rt fmt ...] writes to the client's output buffer, which is
    completely separate from the application's output port. *)
let printf (rt : runtime) fmt =
  Printf.ksprintf (fun s -> Buffer.add_string rt.client_output s) fmt

let client_output (rt : runtime) = Buffer.contents rt.client_output

(** Global client storage (the transparent-allocation analogue: client
    state lives host-side, never in application memory). *)
let set_global_field (rt : runtime) (v : exn) = rt.client_global <- Some v
let get_global_field (rt : runtime) = rt.client_global

(** Transparent memory allocation (paper §3.2): carve zero-initialized
    storage out of the runtime's own region, invisible to the
    application's allocator and address space assumptions.  The
    returned address is usable both host-side ({!read_global} /
    {!write_global}) and as an absolute-memory operand in emitted code
    ({!global_opnd}) — the low-overhead way to keep profiling counters. *)
let alloc_global (rt : runtime) ~bytes : int =
  let bytes = (bytes + 7) land lnot 7 in
  let a = rt.heap_cursor - bytes in
  if a < rt.cache_cursor then rio_error "alloc_global: runtime region full";
  rt.heap_cursor <- a;
  a

let global_opnd (addr : int) : Operand.t = Operand.mem_abs addr

let read_global (rt : runtime) addr : int =
  Vm.Memory.read_u32 (Vm.Machine.mem rt.machine) addr

let write_global (rt : runtime) addr v : unit =
  Vm.Memory.write_u32 (Vm.Machine.mem rt.machine) addr v

(** Per-thread client storage (paper: "a generic thread-local storage
    field for use by clients"). *)
let set_thread_field (ctx : context) (v : exn) = ctx.ts.client_field <- Some v
let get_thread_field (ctx : context) = ctx.ts.client_field

(* ------------------------------------------------------------------ *)
(* Processor identification (§3.2: architecture-specific opts)        *)
(* ------------------------------------------------------------------ *)

let proc_get_family (rt : runtime) : Vm.Cost.family =
  (Vm.Machine.cost rt.machine).Vm.Cost.family

(* ------------------------------------------------------------------ *)
(* Spill slots and TLS operands for emitted code                      *)
(* ------------------------------------------------------------------ *)

(** Operand addressing spill slot [n] (0..7) of the current thread;
    usable in instructions the client emits into fragments. *)
let spill_slot_opnd (ctx : context) n : Operand.t =
  if n < 0 || n > 7 then rio_error "spill slot %d out of range" n;
  Operand.mem_abs (tls_addr ~tid:ctx.ts.ts_tid ~slot:(slot_spill0 + n))

(** [save_reg ctx r n] — an instruction saving register [r] to spill
    slot [n] (the paper's dr_save_reg). *)
let save_reg (ctx : context) (r : Reg.t) n : Instr.t =
  Create.mov (spill_slot_opnd ctx n) (Operand.Reg r)

let restore_reg (ctx : context) (r : Reg.t) n : Instr.t =
  Create.mov (Operand.Reg r) (spill_slot_opnd ctx n)

(** Operand for the client's emitted-code TLS field. *)
let tls_field_opnd (ctx : context) : Operand.t =
  Operand.mem_abs (tls_addr ~tid:ctx.ts.ts_tid ~slot:slot_client)

(** Read/write the emitted-code TLS field from host code (clean calls). *)
let read_tls_field (ctx : context) : int =
  Vm.Memory.read_u32 (Vm.Machine.mem ctx.rt.machine)
    (tls_addr ~tid:ctx.ts.ts_tid ~slot:slot_client)

let write_tls_field (ctx : context) v : unit =
  Vm.Memory.write_u32 (Vm.Machine.mem ctx.rt.machine)
    (tls_addr ~tid:ctx.ts.ts_tid ~slot:slot_client)
    v

(** The in-flight indirect-branch target (valid inside ib-related clean
    calls and stubs — what Figure 4's profiling routine reads). *)
let read_ibl_target (ctx : context) : int =
  Vm.Memory.read_u32 (Vm.Machine.mem ctx.rt.machine)
    (tls_addr ~tid:ctx.ts.ts_tid ~slot:slot_ibl_target)

(** Operand for the IBL target slot (for emitted compares, Figure 4). *)
let ibl_target_opnd (ctx : context) : Operand.t =
  Operand.mem_abs (tls_addr ~tid:ctx.ts.ts_tid ~slot:slot_ibl_target)

(* ------------------------------------------------------------------ *)
(* Clean calls                                                        *)
(* ------------------------------------------------------------------ *)

(** [clean_call rt f] — an instruction that, when executed from the
    cache, saves the application context and invokes [f] host-side.
    The closure may inspect and modify machine state and call any API
    routine (including {!replace_fragment} on its own fragment). *)
let clean_call (rt : runtime) (f : ccall_fn) : Instr.t =
  let id = rt.next_ccall_id in
  rt.next_ccall_id <- id + 1;
  Hashtbl.replace rt.ccalls id f;
  Create.of_insn (Insn.mk_ccall id)

(* ------------------------------------------------------------------ *)
(* Custom exit stubs (§3.2)                                           *)
(* ------------------------------------------------------------------ *)

(** Attach a custom stub to an exit CTI: [il] is prepended to the stub,
    and with [~always:true] the exit goes through the stub even when
    linked. *)
let set_custom_stub ?(always = false) (exit_cti : Instr.t) (il : Instrlist.t) :
    unit =
  exit_cti.Instr.note <- Instr.Any_note (Stub_note (il, always))

let get_custom_stub (exit_cti : Instr.t) : (Instrlist.t * bool) option =
  match exit_cti.Instr.note with
  | Instr.Any_note (Stub_note (il, always)) -> Some (il, always)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Custom traces (§3.5)                                               *)
(* ------------------------------------------------------------------ *)

(** The paper's dr_mark_trace_head. *)
let mark_trace_head (ctx : context) (tag : int) : unit =
  let e = Fragindex.ensure ctx.ts.index tag in
  if not e.Fragindex.marked then begin
    e.Fragindex.marked <- true;
    (* severing links and lookup entries so executions reach the
       dispatcher is shared with automatic head promotion *)
    if e.Fragindex.head < 0 then e.Fragindex.head <- 0;
    (match e.Fragindex.ibl with
     | Some f when f.kind = Bb -> e.Fragindex.ibl <- None
     | _ -> ());
    match e.Fragindex.bb with
    | Some frag -> List.iter (Emit.unlink ctx.rt) frag.incoming
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Adaptive optimization (§3.4)                                       *)
(* ------------------------------------------------------------------ *)

(** The paper's dr_decode_fragment: rebuild the InstrList of an emitted
    fragment from the code cache.  Prefers the trace for [tag]. *)
let decode_fragment (ctx : context) (tag : int) : Instrlist.t option =
  let frag =
    match Fragindex.find_trace ctx.ts.index tag with
    | Some f -> Some f
    | None -> Fragindex.find_bb ctx.ts.index tag
  in
  Option.map (Emit.decode_fragment_il ctx.rt) frag

(** The paper's dr_replace_fragment: emit [il] as the new body for
    [tag] and atomically redirect all links; the old body survives
    until the executing thread leaves it. *)
let replace_fragment (ctx : context) (tag : int) (il : Instrlist.t) : bool =
  let frag =
    match Fragindex.find_trace ctx.ts.index tag with
    | Some f -> Some f
    | None -> Fragindex.find_bb ctx.ts.index tag
  in
  match frag with
  | None -> false
  | Some old_frag ->
      ignore (Emit.replace_fragment ctx.rt ctx.ts old_frag il);
      true

(* ------------------------------------------------------------------ *)
(* Core optimizer passes (DESIGN.md §6.4)                             *)
(* ------------------------------------------------------------------ *)

(* Clients and examples reach the in-core passes directly instead of
   reimplementing them in their hooks.  Each wrapper runs one pass over
   the IL and returns how many rewrites it applied. *)

let opt_strength_reduce (rt : runtime) (il : Instrlist.t) : int =
  let c = Stats.create () in
  Opt.strength_reduce ~family:(proc_get_family rt) c il;
  c.Stats.opt_strength_reduced

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

(** Human-readable dump of every live fragment: kind, tag, cache
    layout, disassembled body and stubs, exits and their link state.
    A debugging and teaching aid (`rio_run --dump-cache`). *)
let dump_cache (rt : runtime) : string =
  let b = Buffer.create 4096 in
  let fetch = Vm.Memory.fetch (Vm.Machine.mem rt.machine) in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun ts ->
      pr "=== thread %d: %d basic blocks, %d traces ===\n" ts.ts_tid
        (Fragindex.bb_count ts.index) (Fragindex.trace_count ts.index);
      let frags =
        let acc = ref [] in
        Fragindex.iter_bbs ts.index (fun _ f -> acc := f :: !acc);
        Fragindex.iter_traces ts.index (fun _ f -> acc := f :: !acc);
        List.sort (fun a b -> compare a.entry b.entry) !acc
      in
      List.iter
        (fun f ->
          pr "%s tag=0x%x cache=[0x%x..0x%x) body=%dB stubs=%dB incoming=%d\n"
            (match f.kind with Bb -> "bb   " | Trace -> "trace")
            f.tag f.entry f.total_end (f.body_end - f.entry)
            (f.total_end - f.body_end)
            (List.length f.incoming);
          List.iter (fun l -> pr "    %s\n" l)
            (Isa.Disasm.region fetch ~pc:f.entry ~len:(f.body_end - f.entry));
          Array.iteri
            (fun k e ->
              pr "  exit %d: %s target=%s %s%s\n" k
                (match e.e_kind with
                 | Exit_direct -> "direct"
                 | Exit_indirect ik -> "indirect(" ^ ind_kind_name ik ^ ")")
                (match e.e_kind with
                 | Exit_direct -> Printf.sprintf "0x%x" e.target_tag
                 | Exit_indirect _ -> "-")
                (match e.linked with
                 | Some t -> Printf.sprintf "LINKED->0x%x@0x%x" t.tag t.entry
                 | None -> "unlinked")
                (if e.always_through_stub then " (always via stub)" else ""))
            f.exits)
        frags)
    rt.thread_states;
  Buffer.contents b

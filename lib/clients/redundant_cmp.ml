(** Redundant flag-computation elimination — a fifth optimization
    beyond the paper's four, in the spirit of its "traditional compiler
    optimizations applied dynamically" theme (§4.1).

    Compilers frequently re-test the same condition on both sides of a
    basic-block boundary ([cmp a,b; jle L] … [cmp a,b; jg M]): within a
    block the duplicate is easy to see, but across blocks only a trace's
    linear view exposes it.  A duplicate [cmp]/[test] can be deleted
    when, between the two:

    - no instruction writes any eflags (the duplicate's only effect is
      recomputing what is already there), and
    - none of its source registers or memory operands may have changed
      ({!Rio.Flags_analysis.may_write_mem}, the alias rule redundant
      load removal uses), and
    - no clean call intervenes (the host may do anything).

    Exit CTIs {e are} permitted in between — they only read flags — which
    is exactly the cross-block case that makes this a trace optimization. *)

open Isa
open Rio.Types

type t = { mutable removed : int; mutable examined : int }

let is_flag_setter (i : Rio.Instr.t) =
  match Rio.Instr.get_opcode i with
  | Opcode.Cmp | Opcode.Test -> true
  | _ -> false

(* operands of a cmp/test: both are sources *)
let srcs_of (i : Rio.Instr.t) =
  let insn = Rio.Instr.get_insn i in
  Array.to_list insn.Insn.srcs

let same_comparison (a : Rio.Instr.t) (b : Rio.Instr.t) =
  Opcode.equal (Rio.Instr.get_opcode a) (Rio.Instr.get_opcode b)
  && List.length (srcs_of a) = List.length (srcs_of b)
  && List.for_all2 Operand.equal (srcs_of a) (srcs_of b)

(* does [i] possibly invalidate the comparison's inputs? *)
let clobbers_inputs (cmp_srcs : Operand.t list) (i : Rio.Instr.t) =
  let insn = Rio.Instr.get_insn i in
  (* the dsts include implicit ones: a push or pop names esp *)
  let writes_reg r =
    Array.exists
      (function Operand.Reg r' -> Reg.equal r r' | _ -> false)
      insn.Insn.dsts
  in
  let clobbers (o : Operand.t) =
    List.exists writes_reg (Operand.regs_used o)
    ||
    match o with
    | Operand.Mem m -> Rio.Flags_analysis.may_write_mem insn m 4
    | _ -> false
  in
  insn.Insn.opcode = Opcode.Ccall || List.exists clobbers cmp_srcs

let optimize_il (t : t) (il : Rio.Instrlist.t) =
  Rio.Instrlist.split_bundles il;
  (* last flag-setting comparison still known valid, if any *)
  let live : Rio.Instr.t option ref = ref None in
  let rec go = function
    | None -> ()
    | Some (i : Rio.Instr.t) ->
        let nxt = i.Rio.Instr.next in
        (if is_flag_setter i then begin
           t.examined <- t.examined + 1;
           match !live with
           | Some prev when same_comparison prev i ->
               Rio.Instrlist.remove il i;
               t.removed <- t.removed + 1
           | _ -> live := Some i
         end
         else begin
           (* any other flag write invalidates the remembered compare *)
           let m = Rio.Instr.get_eflags i in
           if Eflags.write_mask m <> 0 then live := None;
           match !live with
           | Some prev when clobbers_inputs (srcs_of prev) i -> live := None
           | _ -> ()
         end);
        go nxt
  in
  go (Rio.Instrlist.first il)

let make () : client * t =
  let t = { removed = 0; examined = 0 } in
  ( {
      null_client with
      name = "redundant-cmp";
      trace_hook = Some (fun _ctx ~tag:_ il -> optimize_il t il);
      exit_hook =
        (fun rt ->
          Rio.Api.printf rt "redundant-cmp: removed %d of %d comparisons\n"
            t.removed t.examined);
    },
    t )

module For_testing = struct
  let optimize_il = optimize_il
end

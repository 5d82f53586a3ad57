(** The in-core trace optimizer (DESIGN.md §6.4).

    Six passes over the client-view trace IL, selected by
    {!Options.effective_passes} and run at trace finalization — after
    the client's trace hook, before mangling and emission — so every
    simulated execution of the trace pays for fewer, cheaper
    instructions.  Hot traces are additionally {e re}-optimized through
    the decode/replace path ({!maybe_reoptimize}) once their entry
    counter crosses [reopt_threshold]: the decoded cache image exposes
    mangled sequences (indirect-branch slot stores, inline checks) the
    finalize-time run never sees.

    Soundness frame: a trace is linear code with a single entrance;
    every exit CTI is a full liveness boundary (registers, memory and —
    matching the system's existing flags fixup — flags on the
    fall-through only).  All passes either rewrite one instruction into
    a cheaper equal-semantics form or delete a provably unobservable
    one, so the instruction count never grows. *)

open Isa
open Types
module FA = Flags_analysis

(* Kept for the benchmark's pass replay ([perf/layers.ml]): the passes
   count into a {!Stats.t}. *)
let fresh_counters = Stats.create

(* ------------------------------------------------------------------ *)
(* Copy / constant propagation                                        *)
(* ------------------------------------------------------------------ *)

(* Forward dataflow over the linear IL: what value a GPR is known to
   hold right now.  [Esp] is never tracked or substituted — the stack
   pointer is load-bearing for every implicit stack operation.  Facts
   are resolved transitively at creation time, so a chain of copies
   collapses to its root and redefinition kills are a single scan. *)
type cp_fact = C_none | C_copy of Reg.t | C_const of int

let copy_prop (c : Stats.t) (il : Instrlist.t) : unit =
  let facts = Array.make 8 C_none in
  let kill (r : Reg.t) =
    facts.(Reg.number r) <- C_none;
    Array.iteri
      (fun j f ->
        match f with
        | C_copy r' when Reg.equal r' r -> facts.(j) <- C_none
        | _ -> ())
      facts
  in
  let kill_all () = Array.fill facts 0 8 C_none in
  let resolve (s : Reg.t) : cp_fact =
    match facts.(Reg.number s) with
    | C_copy r -> C_copy r
    | C_const k -> C_const k
    | C_none -> C_copy s
  in
  (* replacement register for an address component, copies only *)
  let sub_addr_reg (r : Reg.t) : Reg.t option =
    if Reg.equal r Reg.Esp then None
    else
      match facts.(Reg.number r) with
      | C_copy r' when not (Reg.equal r' Reg.Esp) -> Some r'
      | _ -> None
  in
  let subst_mem (m : Operand.mem) : Operand.mem option =
    let changed = ref false in
    let base =
      match m.Operand.base with
      | Some r -> (
          match sub_addr_reg r with
          | Some r' ->
              changed := true;
              Some r'
          | None -> Some r)
      | None -> None
    in
    let index =
      match m.Operand.index with
      | Some (r, s) -> (
          match sub_addr_reg r with
          | Some r' ->
              changed := true;
              Some (r', s)
          | None -> Some (r, s))
      | None -> None
    in
    if !changed then Some { m with Operand.base; Operand.index } else None
  in
  (* try one candidate insn; commit only if the encoder accepts it *)
  let try_commit (i : Instr.t) (candidate : Insn.t) : bool =
    match Insn.validate candidate with
    | Ok () ->
        Instr.set_insn i candidate;
        true
    | Error _ -> false
  in
  Instrlist.iter il (fun i ->
      if not (Instr.is_bundle i) then begin
        let insn = Instr.get_insn i in
        let op = insn.Insn.opcode in
        if (not (Insn.is_cti insn)) && op <> Opcode.Ccall then begin
          (* stage 1: rewrite address registers, uniformly across both
             operand arrays so alu mirror operands stay consistent *)
          let mem_changed = ref 0 in
          let sub_opnd (o : Operand.t) =
            match o with
            | Operand.Mem m -> (
                match subst_mem m with
                | Some m' ->
                    incr mem_changed;
                    Operand.Mem m'
                | None -> o)
            | _ -> o
          in
          let srcs = Array.map sub_opnd insn.Insn.srcs in
          let dsts = Array.map sub_opnd insn.Insn.dsts in
          if !mem_changed > 0 then
            if
              try_commit i
                (Insn.make ~prefixes:insn.Insn.prefixes op ~srcs ~dsts)
            then
              c.Stats.opt_copies_propagated <-
                c.Stats.opt_copies_propagated + !mem_changed;
          (* stage 2: substitute plain register sources, one at a time;
             positions mirrored in the destination array (alu dst, push's
             esp, idiv's eax) are structural and must stay untouched *)
          let insn = Instr.get_insn i in
          Array.iteri
            (fun k s ->
              match s with
              | Operand.Reg r
                when (not (Reg.equal r Reg.Esp))
                     && not (Array.exists (Operand.equal s) insn.Insn.dsts)
                -> (
                  let commit repl count =
                    let insn = Instr.get_insn i in
                    let srcs = Array.copy insn.Insn.srcs in
                    srcs.(k) <- repl;
                    if
                      try_commit i
                        (Insn.make ~prefixes:insn.Insn.prefixes
                           insn.Insn.opcode ~srcs ~dsts:insn.Insn.dsts)
                    then count ()
                  in
                  match facts.(Reg.number r) with
                  | C_copy r' when not (Reg.equal r' r) ->
                      commit (Operand.Reg r') (fun () ->
                          c.Stats.opt_copies_propagated <-
                            c.Stats.opt_copies_propagated + 1)
                  | C_const k' ->
                      commit (Operand.Imm k') (fun () ->
                          c.Stats.opt_consts_propagated <-
                            c.Stats.opt_consts_propagated + 1)
                  | _ -> ())
              | _ -> ())
            insn.Insn.srcs
        end;
        (* state update, from the (possibly rewritten) instruction *)
        let insn = Instr.get_insn i in
        if insn.Insn.opcode = Opcode.Ccall then kill_all ()
        else begin
          match (insn.Insn.opcode, insn.Insn.dsts, insn.Insn.srcs) with
          | Opcode.Mov, [| Operand.Reg d |], [| Operand.Reg s |]
            when (not (Reg.equal d Reg.Esp))
                 && (not (Reg.equal s Reg.Esp))
                 && not (Reg.equal d s) ->
              let v = resolve s in
              kill d;
              facts.(Reg.number d) <-
                (match v with
                | C_copy r when Reg.equal r d -> C_none
                | v -> v)
          | Opcode.Mov, [| Operand.Reg d |], [| Operand.Imm k |]
            when not (Reg.equal d Reg.Esp) ->
              kill d;
              facts.(Reg.number d) <- C_const k
          | _ ->
              Array.iter
                (fun dd ->
                  match dd with Operand.Reg r -> kill r | _ -> ())
                insn.Insn.dsts
        end
      end)

(* ------------------------------------------------------------------ *)
(* Strength reduction: inc → add, dec → sub                           *)
(* ------------------------------------------------------------------ *)

(* On the Pentium 4, [inc]/[dec] merge into the flags register instead
   of overwriting it (they preserve CF) and cost 4 cycles to [add]'s 1;
   on the Pentium 3 the original forms are already optimal.  The
   conversion is flag-correct exactly when CF is dead after the
   instruction — [add] clobbers it (paper §4.2, Figure 3). *)
let strength_reduce ~(family : Vm.Cost.family) (c : Stats.t)
    (il : Instrlist.t) : unit =
  if family = Vm.Cost.Pentium4 then
    Instrlist.iter il (fun i ->
        if not (Instr.is_bundle i) then
          match Instr.get_opcode i with
          | (Opcode.Inc | Opcode.Dec) as op
            when FA.flags_dead_after ~mask:(Eflags.bit Eflags.CF)
                   i.Instr.next ->
              let dst = Instr.get_dst i 0 in
              let repl =
                match op with
                | Opcode.Inc -> Insn.mk_add dst (Operand.Imm 1)
                | _ -> Insn.mk_sub dst (Operand.Imm 1)
              in
              let prefixes = Instr.get_prefixes i in
              Instr.set_insn i repl;
              Instr.set_prefixes i prefixes;
              c.Stats.opt_strength_reduced <- c.Stats.opt_strength_reduced + 1
          | _ -> ())

(* ------------------------------------------------------------------ *)
(* Redundant load removal                                             *)
(* ------------------------------------------------------------------ *)

(* Forward facts "register r (or FP register f) currently holds the
   value of memory operand M", plus, with [~consts], "M currently holds
   constant k": redundant load removal (paper §4.1).  [-O2] runs it
   with constant facts on; the bundled RLR client is this pass with
   them off.  Every memory write, explicit or implicit, kills the facts
   {!FA.may_write_mem} says it may overwrite.  Loads and moves touch no
   eflags, so every rewrite is flag-safe. *)
type rl_fact =
  | Gpr_holds of Reg.t * Operand.mem * int
  | Fpr_holds of Reg.F.t * Operand.mem * int
  | Mem_const of Operand.mem * int * int  (* mem, value, width *)

let remove_redundant_loads ~consts (c : Stats.t) (il : Instrlist.t) : unit =
  let facts = ref [] in
  let fact_mem = function
    | Gpr_holds (_, m, w) -> (m, w)
    | Fpr_holds (_, m, w) -> (m, w)
    | Mem_const (m, _, w) -> (m, w)
  in
  let kill_written (insn : Insn.t) =
    facts :=
      List.filter
        (fun f ->
          let fm, fw = fact_mem f in
          not (FA.may_write_mem insn fm fw))
        !facts
  in
  let kill_reg (r : Reg.t) =
    facts :=
      List.filter
        (fun f ->
          let fm, _ = fact_mem f in
          (match f with
          | Gpr_holds (h, _, _) -> not (Reg.equal h r)
          | _ -> true)
          && not (List.exists (Reg.equal r) (Operand.mem_regs fm)))
        !facts
  in
  let kill_freg (fr : Reg.F.t) =
    facts :=
      List.filter
        (function
          | Fpr_holds (h, _, _) -> not (Reg.F.equal h fr)
          | _ -> true)
        !facts
  in
  let find_gpr (m : Operand.mem) w =
    List.find_map
      (function
        | Gpr_holds (r, fm, fw) when fw = w && Operand.equal_mem fm m ->
            Some r
        | _ -> None)
      !facts
  in
  let find_fpr (m : Operand.mem) =
    List.find_map
      (function
        | Fpr_holds (f, fm, 8) when Operand.equal_mem fm m -> Some f
        | _ -> None)
      !facts
  in
  let find_const (m : Operand.mem) w =
    List.find_map
      (function
        | Mem_const (fm, k, fw) when fw = w && Operand.equal_mem fm m ->
            Some k
        | _ -> None)
      !facts
  in
  let add_fact f = facts := f :: !facts in
  (* generic state transfer for instructions with no special handling;
     the dsts include implicit ones, so a push or pop kills esp *)
  let update_state (insn : Insn.t) =
    kill_written insn;
    Array.iter
      (fun d ->
        match d with
        | Operand.Reg r -> kill_reg r
        | Operand.Freg f -> kill_freg f
        | _ -> ())
      insn.Insn.dsts;
    if insn.Insn.opcode = Opcode.Ccall then facts := []
  in
  Instrlist.iter il (fun i ->
      if Instr.is_bundle i then facts := []
      else
        let insn = Instr.get_insn i in
        match (insn.Insn.opcode, insn.Insn.dsts, insn.Insn.srcs) with
        (* pure 32-bit load: delete it, or read the register (else the
           constant) the slot is known to hold *)
        | Opcode.Mov, [| Operand.Reg r |], [| Operand.Mem m |] -> (
            match find_gpr m 4 with
            | Some r' when Reg.equal r r' ->
                Instrlist.remove il i;
                c.Stats.opt_loads_removed <- c.Stats.opt_loads_removed + 1
            | held ->
                let src =
                  match held with
                  | Some r' -> Some (Operand.Reg r')
                  | None -> Option.map (fun k -> Operand.Imm k) (find_const m 4)
                in
                Option.iter
                  (fun s ->
                    Instr.set_insn i (Insn.mk_mov (Operand.Reg r) s);
                    c.Stats.opt_loads_rewritten <- c.Stats.opt_loads_rewritten + 1)
                  src;
                kill_reg r;
                (* a load whose address uses its own destination cannot
                   be remembered: the address changes with r *)
                if not (List.exists (Reg.equal r) (Operand.mem_regs m)) then
                  add_fact (Gpr_holds (r, m, 4)))
        (* 32-bit store: the register (or constant) mirrors the slot *)
        | Opcode.Mov, [| Operand.Mem m |], [| Operand.Reg r |] ->
            kill_written insn;
            add_fact (Gpr_holds (r, m, 4))
        | Opcode.Mov, [| Operand.Mem m |], [| Operand.Imm k |] when consts ->
            kill_written insn;
            add_fact (Mem_const (m, k, 4))
        (* FP load *)
        | Opcode.Fld, [| Operand.Freg f |], [| Operand.Mem m |] -> (
            match find_fpr m with
            | Some f' when Reg.F.equal f f' ->
                Instrlist.remove il i;
                c.Stats.opt_loads_removed <- c.Stats.opt_loads_removed + 1
            | held ->
                Option.iter
                  (fun f' ->
                    Instr.set_insn i (Insn.mk_fmov f f');
                    c.Stats.opt_loads_rewritten <- c.Stats.opt_loads_rewritten + 1)
                  held;
                kill_freg f;
                add_fact (Fpr_holds (f, m, 8)))
        (* FP store *)
        | Opcode.Fst, [| Operand.Mem m |], [| Operand.Freg f |] ->
            kill_written insn;
            add_fact (Fpr_holds (f, m, 8))
        | _ -> update_state insn)

(* ------------------------------------------------------------------ *)
(* Dead-store and dead-write elimination                              *)
(* ------------------------------------------------------------------ *)

(* one backward-liveness round of dead register/flag-write removal *)
let dead_writes_round (c : Stats.t) (il : Instrlist.t) : bool =
  let changed = ref false in
  List.iter
    (fun ((i : Instr.t), (after : FA.live)) ->
      if (not (Instr.is_bundle i)) && not (Instr.is_cti i) then begin
        let insn = Instr.get_insn i in
        let op = insn.Insn.opcode in
        let dsts_dead =
          Array.for_all
            (fun d ->
              match d with
              | Operand.Reg r -> not (FA.live_reg after r)
              | Operand.Freg f -> not (FA.live_freg after f)
              | _ -> false)
            insn.Insn.dsts
        in
        let flag_writes = Eflags.write_mask (Insn.eflags insn) in
        if
          Opcode.side_effect_free op && dsts_dead
          && flag_writes land after.FA.live_flags = 0
          && (Array.length insn.Insn.dsts > 0
             || flag_writes <> 0 || op = Opcode.Nop)
        then begin
          Instrlist.remove il i;
          c.Stats.opt_dead_removed <- c.Stats.opt_dead_removed + 1;
          changed := true
        end
      end)
    (FA.backward_liveness il);
  !changed

(* one forward round of dead-store removal *)
let dead_stores_round (c : Stats.t) (il : Instrlist.t) : bool =
  let changed = ref false in
  Instrlist.iter il (fun i ->
      if not (Instr.is_bundle i) then
        let insn = Instr.get_insn i in
        match (insn.Insn.opcode, insn.Insn.dsts, insn.Insn.srcs) with
        | Opcode.Mov, [| Operand.Mem m |], [| (Operand.Reg _ | Operand.Imm _) |]
          when FA.store_dead_after ~mem:m ~width:4 i.Instr.next ->
            Instrlist.remove il i;
            c.Stats.opt_stores_removed <- c.Stats.opt_stores_removed + 1;
            changed := true
        | Opcode.Fst, [| Operand.Mem m |], [| Operand.Freg _ |]
          when FA.store_dead_after ~mem:m ~width:8 i.Instr.next ->
            Instrlist.remove il i;
            c.Stats.opt_stores_removed <- c.Stats.opt_stores_removed + 1;
            changed := true
        | _ -> ());
  !changed

(* Each removal can expose more dead code upstream (a store's source
   becomes unused, a flag producer loses its reader), so iterate to a
   fixpoint, bounded to keep the pass linear in practice. *)
let eliminate_dead (c : Stats.t) (il : Instrlist.t) : unit =
  let rec go rounds =
    if rounds > 0 then begin
      let a = dead_writes_round c il in
      let b = dead_stores_round c il in
      if a || b then go (rounds - 1)
    end
  in
  go 4

(* ------------------------------------------------------------------ *)
(* Exit-check peephole                                                *)
(* ------------------------------------------------------------------ *)

(* Two local rewrites around trace exits:

   (a) [mov [slot], r; cmp [slot], $tag] → compare the register
       directly.  The store stays — the IBL reads the slot on a miss —
       but the re-read of the slot (2 modelled cycles) goes away.  This
       fires on decoded cache images, where the mangled slot store is
       visible.

   (b) [jcc T; jmp T] — both arms leave for the same target: the
       conditional is unobservable and is removed (only when it carries
       no custom stub). *)
let simplify_exit_checks (c : Stats.t) (il : Instrlist.t) : unit =
  Instrlist.iter il (fun i ->
      if not (Instr.is_bundle i) then
        let insn = Instr.get_insn i in
        match (insn.Insn.opcode, insn.Insn.dsts, insn.Insn.srcs) with
        | Opcode.Mov, [| Operand.Mem m |], [| Operand.Reg r |] -> (
            match i.Instr.next with
            | Some j when not (Instr.is_bundle j) -> (
                let jn = Instr.get_insn j in
                match (jn.Insn.opcode, jn.Insn.srcs) with
                | Opcode.Cmp, [| Operand.Mem m'; Operand.Imm k |]
                  when Operand.equal_mem m m' ->
                    Instr.set_insn j
                      (Insn.mk_cmp (Operand.Reg r) (Operand.Imm k));
                    c.Stats.opt_checks_simplified <- c.Stats.opt_checks_simplified + 1
                | _ -> ())
            | _ -> ())
        | Opcode.Jcc _, _, [| Operand.Target t |] -> (
            match (i.Instr.note, i.Instr.next) with
            | Instr.No_note, Some j when not (Instr.is_bundle j) -> (
                let jn = Instr.get_insn j in
                match (jn.Insn.opcode, jn.Insn.srcs, j.Instr.note) with
                | Opcode.Jmp, [| Operand.Target t' |], Instr.No_note
                  when t = t' ->
                    Instrlist.remove il i;
                    c.Stats.opt_checks_simplified <- c.Stats.opt_checks_simplified + 1
                | _ -> ())
            | _ -> ())
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* Dead flag-save elision                                             *)
(* ------------------------------------------------------------------ *)

(* The trace builder brackets an inline check with a flags save when
   the application's flags were live at fixup time:

     pushf; pop [fslot]; cmp ...; jne(stub=[push [fslot]; popf]); push [fslot]; popf

   Earlier passes can make those flags dead (an inc→add conversion
   downstream now clobbers CF; a dead flag-reader was removed), at
   which point the whole bracket — four instructions plus the stub
   restore — is unobservable on the fall-through, the only path the
   system's flags analysis ever considered (the same criterion
   [fixup_check_flags] applies).  Runs last for exactly this reason. *)
let elide_flag_saves (c : Stats.t) (il : Instrlist.t) : unit =
  let insn_of (i : Instr.t) =
    if Instr.is_bundle i then None else Some (Instr.get_insn i)
  in
  (* anchor on the closing popf so removals stay behind the iterator *)
  Instrlist.iter il (fun p6 ->
      match insn_of p6 with
      | Some i6 when i6.Insn.opcode = Opcode.Popf -> (
          match (p6.Instr.prev : Instr.t option) with
          | Some p5 -> (
              match (insn_of p5, p5.Instr.prev) with
              | Some i5, Some p4
                when i5.Insn.opcode = Opcode.Push
                     && Array.length i5.Insn.srcs > 0 -> (
                  match (i5.Insn.srcs.(0), insn_of p4, p4.Instr.note) with
                  | ( Operand.Mem fslot,
                      Some i4,
                      Instr.Any_note (Stub_note (stub, false)) )
                    when (match i4.Insn.opcode with
                         | Opcode.Jcc _ -> true
                         | _ -> false)
                         && Instrlist.length stub = 2 -> (
                      let stub_ok =
                        match
                          (Instrlist.first stub, Instrlist.last stub)
                        with
                        | Some s1, Some s2 -> (
                            match (insn_of s1, insn_of s2) with
                            | Some j1, Some j2 ->
                                j1.Insn.opcode = Opcode.Push
                                && Array.length j1.Insn.srcs > 0
                                && (match j1.Insn.srcs.(0) with
                                   | Operand.Mem ms ->
                                       Operand.equal_mem ms fslot
                                   | _ -> false)
                                && j2.Insn.opcode = Opcode.Popf
                            | _ -> false)
                        | _ -> false
                      in
                      match (stub_ok, p4.Instr.prev) with
                      | true, Some p3 -> (
                          match (insn_of p3, p3.Instr.prev) with
                          | Some i3, Some p2 when i3.Insn.opcode = Opcode.Cmp
                            -> (
                              match (insn_of p2, p2.Instr.prev) with
                              | Some i2, Some p1
                                when i2.Insn.opcode = Opcode.Pop
                                     && Array.length i2.Insn.dsts > 0
                                     && (match i2.Insn.dsts.(0) with
                                        | Operand.Mem md ->
                                            Operand.equal_mem md fslot
                                        | _ -> false) -> (
                                  match insn_of p1 with
                                  | Some i1
                                    when i1.Insn.opcode = Opcode.Pushf
                                         && FA.dead_after p6.Instr.next ->
                                      Instrlist.remove il p1;
                                      Instrlist.remove il p2;
                                      Instrlist.remove il p5;
                                      Instrlist.remove il p6;
                                      p4.Instr.note <- Instr.No_note;
                                      c.Stats.opt_flag_saves_elided <-
                                        c.Stats.opt_flag_saves_elided + 1
                                  | _ -> ())
                              | _ -> ())
                          | _ -> ())
                      | _ -> ())
                  | _ -> ())
              | _ -> ())
          | None -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Pass driver                                                        *)
(* ------------------------------------------------------------------ *)

let run_pass ~(family : Vm.Cost.family) (c : Stats.t) (il : Instrlist.t) :
    Options.opt_pass -> unit = function
  | Options.Copy_prop -> copy_prop c il
  | Options.Strength -> strength_reduce ~family c il
  | Options.Load_removal -> remove_redundant_loads ~consts:true c il
  | Options.Dead_store -> eliminate_dead c il
  | Options.Exit_peephole -> simplify_exit_checks c il
  | Options.Flag_elide -> elide_flag_saves c il

(** Run [passes] in order over [il].  [always_save_flags] suppresses
    the flag-save elision (that ablation must keep every bracket). *)
let run_passes ?(always_save_flags = false) ~(family : Vm.Cost.family)
    (c : Stats.t) (passes : Options.opt_pass list) (il : Instrlist.t) : unit =
  List.iter
    (fun p ->
      match p with
      | Options.Flag_elide when always_save_flags -> ()
      | p -> run_pass ~family c il p)
    passes

let family_of (rt : runtime) : Vm.Cost.family =
  (Vm.Machine.cost rt.machine).Vm.Cost.family

(* run the configured pipeline over one IL, counting into the runtime's
   stats and charging the pass cost; shared by the finalize-time and
   re-optimization paths *)
let run_configured (rt : runtime) (il : Instrlist.t)
    (passes : Options.opt_pass list) : unit =
  let n0 = Instrlist.length il in
  let s = rt.stats in
  run_passes ~always_save_flags:rt.opts.Options.always_save_flags
    ~family:(family_of rt) s passes il;
  charge_opt rt
    (n0 * List.length passes * rt.opts.Options.costs.Options.opt_per_insn_pass);
  s.Stats.opt_traces <- s.Stats.opt_traces + 1;
  s.Stats.opt_insns_removed <-
    s.Stats.opt_insns_removed + (n0 - Instrlist.length il)

(** Optimize a freshly finalized trace IL in place (called between the
    client's trace hook and mangling/emission).  No-op at [-O0]. *)
let run (rt : runtime) (il : Instrlist.t) : unit =
  match Options.effective_passes rt.opts with
  | [] -> ()
  | passes -> run_configured rt il passes

(* ------------------------------------------------------------------ *)
(* Static cost model                                                  *)
(* ------------------------------------------------------------------ *)

(** Estimate the per-execution cycle cost of an IL under the machine's
    cost model: base cycles per instruction plus the memory-access
    charges for every memory operand.  Branch outcomes are unknowable
    statically, so predictor effects are ignored — but the estimate is
    only ever {e compared} between two versions of the same trace,
    where those terms cancel. *)
let estimate_cost (rt : runtime) (il : Instrlist.t) : int =
  let cost = Vm.Machine.cost rt.machine in
  let total = ref 0 in
  Instrlist.iter il (fun i ->
      if not (Instr.is_bundle i) then begin
        let insn = Instr.get_insn i in
        total := !total + Vm.Cost.base_cycles cost insn.Insn.opcode;
        Array.iter
          (function
            | Operand.Mem _ -> total := !total + cost.Vm.Cost.mem_read
            | _ -> ())
          insn.Insn.srcs;
        Array.iter
          (function
            | Operand.Mem _ -> total := !total + cost.Vm.Cost.mem_write
            | _ -> ())
          insn.Insn.dsts
      end);
  !total

(* ------------------------------------------------------------------ *)
(* Hot-trace re-optimization (paper §3.4)                             *)
(* ------------------------------------------------------------------ *)

(* Carry surviving guards from a replaced body onto its replacement.
   The classic passes rewrite and delete instructions but never add
   exit CTIs, so when the exit counts match, the arrays align
   one-to-one by position; when they differ (the exit peephole removed
   a jcc/jmp pair) the positional map is invalid and the guards are
   dropped — execution stays correct, the guards just lose their
   despeculation budget. *)
let rebind_guards (old_frag : fragment) (fresh : fragment) : unit =
  if
    old_frag.guards <> []
    && Array.length fresh.exits = Array.length old_frag.exits
  then
    fresh.guards <-
      List.filter_map
        (fun g ->
          let ord = ref (-1) in
          Array.iteri
            (fun k e -> if e.exit_id = g.g_exit_id then ord := k)
            old_frag.exits;
          if !ord >= 0 then begin
            g.g_exit_id <- fresh.exits.(!ord).exit_id;
            Some g
          end
          else None)
        old_frag.guards

(* Decode the trace's cache image, re-run the pipeline (the mangled
   view exposes slot stores the finalize-time run could not see), and
   swap the body in through the delayed-delete replace path — but only
   when the cost model says the optimized body is actually cheaper per
   execution (satellite fix for the -O2 per-bench regressions: an
   optimization that makes a trace worse is not installed). *)
let reoptimize (rt : runtime) (ts : thread_state) (frag : fragment) : fragment =
  let passes = Options.effective_passes rt.opts in
  let il = Emit.decode_fragment_il rt frag in
  let before = estimate_cost rt il in
  run_configured rt il passes;
  let after = estimate_cost rt il in
  if after >= before then begin
    rt.stats.Stats.opt_replaces_skipped <-
      rt.stats.Stats.opt_replaces_skipped + 1;
    log_flow rt "reopt of trace 0x%x skipped (cost %d -> %d)" frag.tag before
      after;
    frag
  end
  else
    match Emit.replace_fragment rt ts frag il with
    | fresh ->
        fresh.reopted <- true;
        fresh.exec_count <- frag.exec_count;
        rebind_guards frag fresh;
        rt.stats.Stats.traces_reoptimized <-
          rt.stats.Stats.traces_reoptimized + 1;
        log_flow rt "reoptimized trace 0x%x" frag.tag;
        fresh
    | exception Emit.No_room _ ->
        (* the trace region cannot host the replacement right now; keep
           running the original body *)
        log_flow rt "reopt of trace 0x%x dropped (no room)" frag.tag;
        frag

(* ------------------------------------------------------------------ *)
(* Despeculation (DESIGN.md §6.7)                                     *)
(* ------------------------------------------------------------------ *)

(* Re-optimize a trace without a violated constant assumption: the
   guard's conditional side exit becomes an unconditional exit to the
   same deoptimization target (the unoptimized constituent block, or
   the IBL), its compare and flags-save bracket are deleted, and the
   now unreachable tail of the trace is truncated.  Speculation cannot
   be locally undone — constant folding may have propagated the
   assumed value arbitrarily far — so cutting at the guard is the only
   sound way to drop exactly one assumption while keeping the
   profitable prefix. *)
let despec_cut (rt : runtime) (ts : thread_state) (frag : fragment)
    (g : guard) : fragment =
  (* in every outcome, stop retrying this guard *)
  let give_up () =
    frag.guards <- List.filter (fun g' -> g' != g) frag.guards;
    frag
  in
  let victim_ord = ref (-1) in
  Array.iteri
    (fun k e -> if e.exit_id = g.g_exit_id then victim_ord := k)
    frag.exits;
  if !victim_ord < 0 then give_up ()
  else begin
    let il = Emit.decode_fragment_il rt frag in
    (* locate the victim exit CTI: the !victim_ord-th exit in IL order *)
    let ord = ref (-1) in
    let victim = ref None in
    Instrlist.iter il (fun i ->
        if Emit.exit_info i <> None then begin
          incr ord;
          if !ord = !victim_ord then victim := Some i
        end);
    let opcode_of i =
      if Instr.is_bundle i then None else Some (Instr.get_opcode i)
    in
    match !victim with
    | Some jne
      when (match opcode_of jne with Some (Opcode.Jcc _) -> true | _ -> false)
      -> begin
        match jne.Instr.prev with
        | Some cmp when opcode_of cmp = Some Opcode.Cmp ->
            let target =
              match Insn.src (Instr.get_insn jne) 0 with
              | Operand.Target t -> t
              | _ -> -1
            in
            if target < 0 then give_up ()
            else begin
              (* delete the flags-save bracket, if fixup inserted one *)
              let fslot =
                Mangle.abs_slot ~tid:ts.ts_tid slot_eflags
              in
              (match cmp.Instr.prev with
               | Some pop
                 when opcode_of pop = Some Opcode.Pop
                      && Insn.num_dsts (Instr.get_insn pop) > 0
                      && Operand.equal (Insn.dst (Instr.get_insn pop) 0) fslot
                 -> (
                   match pop.Instr.prev with
                   | Some pushf when opcode_of pushf = Some Opcode.Pushf ->
                       Instrlist.remove il pushf;
                       Instrlist.remove il pop
                   | _ -> ())
               | _ -> ());
              Instrlist.remove il cmp;
              (* unconditional exit to the deopt target; no stub note —
                 with the compare gone there are no flags to restore *)
              let cut = Create.jmp target in
              Instrlist.insert_after il jne cut;
              Instrlist.remove il jne;
              (* truncate the unreachable tail *)
              let rec trunc () =
                match Instrlist.last il with
                | Some last when last != cut ->
                    Instrlist.remove il last;
                    trunc ()
                | _ -> ()
              in
              trunc ();
              match Emit.replace_fragment rt ts frag il with
              | fresh ->
                  fresh.exec_count <- frag.exec_count;
                  fresh.reopted <- frag.reopted;
                  (* guards whose exits precede the cut survive; the
                     victim and everything after it are gone *)
                  fresh.guards <-
                    List.filter_map
                      (fun g' ->
                        if g' == g then None
                        else begin
                          let ord' = ref (-1) in
                          Array.iteri
                            (fun k e ->
                              if e.exit_id = g'.g_exit_id then ord' := k)
                            frag.exits;
                          if
                            !ord' >= 0
                            && !ord' < !victim_ord
                            && !ord' < Array.length fresh.exits
                            && fresh.exits.(!ord').e_kind
                               = frag.exits.(!ord').e_kind
                          then begin
                            g'.g_exit_id <- fresh.exits.(!ord').exit_id;
                            Some g'
                          end
                          else None
                        end)
                      frag.guards;
                  rt.stats.Stats.spec_despecs <-
                    rt.stats.Stats.spec_despecs + 1;
                  (* remember the verdict in the index: constant
                     folding at this site is now known unstable, so
                     future trace builds (here, after a flush, or in a
                     pool worker prewarmed with this index) skip it
                     instead of rebuilding the same doomed guard *)
                  Fragindex.set_nospec ts.index g.g_site;
                  log_flow rt "despeculated trace 0x%x at site 0x%x" frag.tag
                    g.g_site;
                  fresh
              | exception Emit.No_room _ ->
                  log_flow rt "despec of trace 0x%x dropped (no room)"
                    frag.tag;
                  give_up ()
            end
        | _ -> give_up ()
      end
    | _ -> give_up ()
  end

(* A spent indirect-target guard means the application changed phase:
   the dominant successor the trace was specialized for is no longer
   where control goes.  Cutting at the guard would leave a truncated
   trace ending in a bare IBL exit — strictly worse than the inline
   check it replaces.  The profitable "re-optimize without the
   assumption" is to start over: delete the trace, forget the stale
   successor profile, and re-arm the head counter so the head warms up
   again over the *current* phase and rebuilds with a guard on the new
   dominant target.  The lifecycle is repeatable — each phase change
   despecs the old specialization and relearns the next. *)
let despec_rebuild (rt : runtime) (ts : thread_state) (frag : fragment)
    (g : guard) : fragment =
  Emit.delete_fragment rt ts frag;
  (match Fragindex.find ts.index g.g_site with
   | Some e -> e.Fragindex.prof <- None
   | None -> ());
  (match Fragindex.find ts.index frag.tag with
   | Some e when e.Fragindex.head >= 0 -> e.Fragindex.head <- 0
   | _ -> ());
  rt.stats.Stats.spec_despecs <- rt.stats.Stats.spec_despecs + 1;
  log_flow rt "despeculated trace 0x%x (rebuild) at site 0x%x" frag.tag
    g.g_site;
  frag

(** Drop one spent speculative assumption; dispatches on what was
    assumed.  A constant-load guard is cut out of the trace in place;
    an indirect-target guard deletes the trace and relearns (see
    [despec_rebuild]).  The returned fragment may be deleted — callers
    in the violation paths ignore it and continue through the normal
    dispatch lookup, which no longer finds the dead trace. *)
let despeculate (rt : runtime) (ts : thread_state) (frag : fragment)
    (g : guard) : fragment =
  match g.g_kind with
  | G_const when not frag.loaded -> despec_cut rt ts frag g
  | G_const ->
      (* a loaded body has no IL round-trip to cut the guard out of;
         rebuild instead, but keep the cut path's verdict so the
         relearned trace skips the unstable speculation *)
      Fragindex.set_nospec ts.index g.g_site;
      despec_rebuild rt ts frag g
  | G_ind _ -> despec_rebuild rt ts frag g

(* Deferred-optimization threshold: traces are emitted unoptimized and
   only invest in the pass pipeline once they prove hot, so cold traces
   never pay for passes (or the replace) that cannot amortize.  Entry
   counts undercount hotness — a trace spinning in its own loop never
   re-enters the dispatcher — so the threshold is a low bar ("entered
   again after being built"), not a high-water mark.  The legacy
   [--reopt N] knob, when set, overrides the built-in default. *)
let defer_threshold (rt : runtime) : int =
  match rt.opts.Options.reopt_threshold with Some thr -> thr | None -> 2

(** Called on every fragment entry from the dispatcher and the IBL.
    At [opt_level >= 1] it counts trace entries and optimizes a trace
    in place (decode/replace, cost-gated) once it proves hot.  Guard
    budgets are {e not} polled here — a self-looping trace may never
    re-enter through the dispatcher, so despeculation fires from the
    violation paths themselves.  Returns the fragment to actually
    enter. *)
let maybe_reoptimize (rt : runtime) (ts : thread_state) (frag : fragment) :
    fragment =
  if frag.kind <> Trace || frag.deleted || rt.opts.Options.opt_level < 1 then
    frag
  else begin
    frag.exec_count <- frag.exec_count + 1;
    if (not frag.reopted) && frag.exec_count >= defer_threshold rt then begin
      (* marked before the attempt so a failed replacement is not
         retried on every subsequent entry *)
      frag.reopted <- true;
      reoptimize rt ts frag
    end
    else frag
  end

module For_testing = struct
  let eliminate_dead = eliminate_dead
  let simplify_exit_checks = simplify_exit_checks
  let elide_flag_saves = elide_flag_saves
end

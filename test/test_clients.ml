(** Tests for the four paper optimizations (§4) and the instrumentation
    clients: IL-level unit tests of each transformation, plus
    behavioural tests showing each optimization's intended effect
    (and its safety) on targeted programs. *)

open Isa

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

let reg r = Operand.Reg r
let memb ?(disp = 0) b = Operand.mem_base ~disp b

let il_of list =
  let il = Rio.Instrlist.create () in
  List.iter (Rio.Instrlist.append il) list;
  il

let opcodes il =
  List.map
    (fun i -> Opcode.name (Rio.Instr.get_opcode i))
    (Rio.Instrlist.to_list il)

(* ------------------------------------------------------------------ *)
(* RLR unit tests                                                     *)
(* ------------------------------------------------------------------ *)

type rlr_counts = { removed : int; rewritten : int }

let rlr_run list =
  let il = il_of list in
  let c = Rio.Stats.create () in
  Clients.Rlr.For_testing.optimize_il c il;
  ( il,
    {
      removed = c.Rio.Stats.opt_loads_removed;
      rewritten = c.Rio.Stats.opt_loads_rewritten;
    } )

let test_rlr_removes_same_reg_reload () =
  let il, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.add (reg Reg.Ecx) (reg Reg.Ecx);
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "one removed" 1 st.removed;
  Alcotest.(check (list string)) "reload gone" [ "mov"; "add"; "jmp" ] (opcodes il)

let test_rlr_rewrites_cross_reg_reload () =
  let il, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.mov (reg Reg.Ecx) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "one rewritten" 1 st.rewritten;
  let second = List.nth (Rio.Instrlist.to_list il) 1 in
  checkb "now reg-to-reg" true
    (Operand.equal (Rio.Instr.get_src second 0) (reg Reg.Eax))

let test_rlr_store_forwarding () =
  (* a store establishes the fact: mov [m], eax; mov ecx, [m] -> reg move *)
  let il, st =
    rlr_run
      [
        Rio.Create.mov (memb ~disp:16 Reg.Ebp) (reg Reg.Eax);
        Rio.Create.mov (reg Reg.Ecx) (memb ~disp:16 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  ignore il;
  checki "forwarded" 1 st.rewritten

let test_rlr_aliasing_store_kills () =
  (* an intervening store through an unrelated base must kill the fact *)
  let _, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.mov (memb Reg.Esi) (reg Reg.Edx);      (* may alias *)
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "nothing removed" 0 st.removed;
  checki "nothing rewritten" 0 st.rewritten

let test_rlr_disjoint_store_preserves () =
  (* same base, provably disjoint displacement: fact survives *)
  let _, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.mov (memb ~disp:32 Reg.Ebp) (reg Reg.Edx);  (* disjoint *)
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "removed" 1 st.removed

let test_rlr_clobbered_holder_kills () =
  let _, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.add (reg Reg.Eax) (Operand.Imm 1);     (* clobber holder *)
        Rio.Create.mov (reg Reg.Ecx) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "no rewrite" 0 st.rewritten

let test_rlr_base_reg_clobber_kills () =
  (* clobbering the address base invalidates the fact *)
  let _, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:8 Reg.Ebp);
        Rio.Create.add (reg Reg.Ebp) (Operand.Imm 4);
        Rio.Create.mov (reg Reg.Ecx) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "no rewrite" 0 st.rewritten

let test_rlr_push_kills_esp_facts () =
  let _, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:4 Reg.Esp);
        Rio.Create.push (reg Reg.Edx);
        Rio.Create.mov (reg Reg.Ecx) (memb ~disp:4 Reg.Esp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "esp facts killed" 0 st.rewritten

(* A push writes [esp-4]; with [ebp] a copy of [esp], that is the slot
   stored before the push, so the reload must stay a load. *)
let test_rlr_push_kills_other_base_facts () =
  let _, st =
    rlr_run
      [
        Rio.Create.mov (reg Reg.Ebp) (reg Reg.Esp);
        Rio.Create.mov (memb ~disp:(-4) Reg.Ebp) (reg Reg.Ecx);
        Rio.Create.push (reg Reg.Edx);
        Rio.Create.mov (reg Reg.Eax) (memb ~disp:(-4) Reg.Ebp);
        Rio.Create.out (reg Reg.Eax);
      ]
  in
  checki "nothing removed" 0 st.removed;
  checki "nothing rewritten" 0 st.rewritten

let test_rlr_fp_reload_removed () =
  let _, st =
    rlr_run
      [
        Rio.Create.fld (Reg.F.make 2) (memb ~disp:8 Reg.Ebp);
        Rio.Create.fadd (Reg.F.make 1) (Operand.Freg (Reg.F.make 2));
        Rio.Create.fld (Reg.F.make 2) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "fp reload removed" 1 st.removed

let test_rlr_fp_clobber_kills () =
  let _, st =
    rlr_run
      [
        Rio.Create.fld (Reg.F.make 2) (memb ~disp:8 Reg.Ebp);
        Rio.Create.fmul (Reg.F.make 2) (Operand.Freg (Reg.F.make 3)); (* clobber *)
        Rio.Create.fld (Reg.F.make 2) (memb ~disp:8 Reg.Ebp);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "no removal after clobber" 0 st.removed

(* ------------------------------------------------------------------ *)
(* Strength reduction unit tests                                      *)
(* ------------------------------------------------------------------ *)

let strength_run list =
  let il = il_of list in
  let st = { Clients.Strength.examined = 0; converted = 0 } in
  Clients.Strength.For_testing.optimize_il il st;
  (il, st)

let test_strength_converts_when_cf_dead () =
  let il, st =
    strength_run
      [
        Rio.Create.inc (reg Reg.Eax);
        Rio.Create.add (reg Reg.Ecx) (Operand.Imm 1);  (* writes CF first *)
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "converted" 1 st.converted;
  Alcotest.(check (list string)) "inc now add" [ "add"; "add"; "jmp" ] (opcodes il);
  let first = List.hd (Rio.Instrlist.to_list il) in
  checkb "adds 1" true (Operand.equal (Rio.Instr.get_src first 0) (Operand.Imm 1))

let test_strength_dec_to_sub () =
  let il, st =
    strength_run
      [
        Rio.Create.dec (reg Reg.Edx);
        Rio.Create.cmp (reg Reg.Ecx) (Operand.Imm 0);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "converted" 1 st.converted;
  Alcotest.(check (list string)) "dec now sub" [ "sub"; "cmp"; "jmp" ] (opcodes il)

let test_strength_blocked_by_cf_read () =
  (* adc reads CF: converting inc (which preserves CF) to add (which
     clobbers it) would be wrong *)
  let il, st =
    strength_run
      [
        Rio.Create.inc (reg Reg.Eax);
        Rio.Create.adc (reg Reg.Ecx) (Operand.Imm 0);
        Rio.Create.jmp 0x4000;
      ]
  in
  checki "not converted" 0 st.converted;
  Alcotest.(check (list string)) "inc kept" [ "inc"; "adc"; "jmp" ] (opcodes il)

let test_strength_blocked_at_exit () =
  (* the paper's simplification: stop at the first exit CTI *)
  let _, st =
    strength_run [ Rio.Create.inc (reg Reg.Eax); Rio.Create.jmp 0x4000 ]
  in
  checki "not converted at exit" 0 st.converted

let test_strength_preserves_semantics () =
  (* full-system check on a flag-sensitive program *)
  let open Asm.Dsl in
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main";
          mov eax (i (-1));
          mov ebx (i 0);
          mov ecx (i 0);
          label "loop";
          add eax (i 1);     (* sets CF on wrap *)
          inc ebx;           (* must not clobber CF before the adc *)
          adc ecx (i 0);
          cmp ebx (i 100);
          j l "loop";
          out ecx;
          out ebx;
          hlt;
        ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let native =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    ignore (Vm.Sched.run ~emulate:false m);
    Vm.Machine.output m
  in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  let opts = { Rio.Options.default with trace_threshold = 10 } in
  let rt = Rio.create ~opts ~client:(Clients.Strength.make ~on_bb:true) m in
  ignore (Rio.run rt);
  check_ilist "flag-sensitive program unchanged" native (Vm.Machine.output m)

(* ------------------------------------------------------------------ *)
(* Redundant-compare elimination unit tests                           *)
(* ------------------------------------------------------------------ *)

let rcmp_run list =
  let il = il_of list in
  let _, t = Clients.Redundant_cmp.make () in
  Clients.Redundant_cmp.For_testing.optimize_il t il;
  (il, t)

let test_rcmp_removes_duplicate () =
  let il, t =
    rcmp_run
      [
        Rio.Create.cmp (reg Reg.Eax) (reg Reg.Ecx);
        Rio.Create.jcc Isa.Cond.LE 0x3000;       (* exit CTI between: fine *)
        Rio.Create.cmp (reg Reg.Eax) (reg Reg.Ecx);
        Rio.Create.jcc Isa.Cond.NLE 0x4000;
        Rio.Create.jmp 0x5000;
      ]
  in
  checki "removed" 1 t.Clients.Redundant_cmp.removed;
  Alcotest.(check (list string)) "shape" [ "cmp"; "jle"; "jnle"; "jmp" ] (opcodes il)

let test_rcmp_blocked_by_operand_write () =
  let _, t =
    rcmp_run
      [
        Rio.Create.cmp (reg Reg.Eax) (reg Reg.Ecx);
        Rio.Create.jcc Isa.Cond.LE 0x3000;
        Rio.Create.mov (reg Reg.Eax) (Operand.Imm 7);   (* clobbers input *)
        Rio.Create.cmp (reg Reg.Eax) (reg Reg.Ecx);
        Rio.Create.jmp 0x5000;
      ]
  in
  checki "kept" 0 t.Clients.Redundant_cmp.removed

let test_rcmp_blocked_by_flag_write () =
  let _, t =
    rcmp_run
      [
        Rio.Create.cmp (reg Reg.Eax) (reg Reg.Ecx);
        Rio.Create.add (reg Reg.Edx) (Operand.Imm 1);   (* rewrites flags *)
        Rio.Create.cmp (reg Reg.Eax) (reg Reg.Ecx);
        Rio.Create.jmp 0x5000;
      ]
  in
  (* the duplicate must stay: the add changed the flags in between *)
  checki "kept" 0 t.Clients.Redundant_cmp.removed

let test_rcmp_blocked_by_aliasing_store () =
  let _, t =
    rcmp_run
      [
        Rio.Create.cmp (memb ~disp:8 Reg.Ebp) (Operand.Imm 3);
        Rio.Create.jcc Isa.Cond.Z 0x3000;
        Rio.Create.mov (memb Reg.Esi) (reg Reg.Edx);    (* may alias *)
        Rio.Create.cmp (memb ~disp:8 Reg.Ebp) (Operand.Imm 3);
        Rio.Create.jmp 0x5000;
      ]
  in
  checki "kept" 0 t.Clients.Redundant_cmp.removed

(* An integer store is 4 bytes wide: a write to [ebp] does not reach
   [ebp+4], so the second compare is still redundant. *)
let test_rcmp_adjacent_int_store () =
  let il, t =
    rcmp_run
      [
        Rio.Create.cmp (memb ~disp:4 Reg.Ebp) (Operand.Imm 0);
        Rio.Create.mov (memb Reg.Ebp) (reg Reg.Eax);
        Rio.Create.cmp (memb ~disp:4 Reg.Ebp) (Operand.Imm 0);
        Rio.Create.jmp 0x5000;
      ]
  in
  checki "removed" 1 t.Clients.Redundant_cmp.removed;
  Alcotest.(check (list string)) "shape" [ "cmp"; "mov"; "jmp" ] (opcodes il)

(* An FP store is 8 bytes wide: a write to [ebp] covers [ebp+4]. *)
let test_rcmp_blocked_by_wide_fp_store () =
  let _, t =
    rcmp_run
      [
        Rio.Create.cmp (memb ~disp:4 Reg.Ebp) (Operand.Imm 0);
        Rio.Create.fst_ (memb Reg.Ebp) (Reg.F.make 1);
        Rio.Create.cmp (memb ~disp:4 Reg.Ebp) (Operand.Imm 0);
        Rio.Create.jmp 0x5000;
      ]
  in
  checki "kept" 0 t.Clients.Redundant_cmp.removed

(* The push overwrites [ebp-4] (ebp = esp), so the second compare sees
   a different value and must stay. *)
let test_rcmp_blocked_by_push () =
  let il, t =
    rcmp_run
      [
        Rio.Create.mov (reg Reg.Ebp) (reg Reg.Esp);
        Rio.Create.mov (memb ~disp:(-4) Reg.Ebp) (Operand.Imm 0);
        Rio.Create.cmp (memb ~disp:(-4) Reg.Ebp) (Operand.Imm 0);
        Rio.Create.push (reg Reg.Edx);
        Rio.Create.cmp (memb ~disp:(-4) Reg.Ebp) (Operand.Imm 0);
        Rio.Create.pushf ();
        Rio.Create.pop (reg Reg.Eax);
        Rio.Create.out (reg Reg.Eax);
      ]
  in
  checki "kept" 0 t.Clients.Redundant_cmp.removed;
  Alcotest.(check (list string))
    "shape"
    [ "mov"; "mov"; "cmp"; "push"; "cmp"; "pushf"; "pop"; "out" ]
    (opcodes il)

let test_rcmp_whole_program () =
  (* a cross-block duplicate comparison, visible only in a trace *)
  let open Asm.Dsl in
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main";
          mov eax (i 0); mov ecx (i 0); mov edi (i 0);
          label "loop";
          cmp ecx (i 500);
          j nl "ge_path";
          (* < path: the compiler re-tests the same condition *)
          cmp ecx (i 500);
          j z "never";
          add eax (i 2);
          label "back";
          inc ecx;
          cmp ecx (i 1000);
          j l "loop";
          out eax; hlt;
          label "ge_path";
          add eax (i 3);
          jmp "back";
          label "never";
          add edi (i 1);
          jmp "back";
        ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let native =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    ignore (Vm.Sched.run ~emulate:false m);
    Vm.Machine.output m
  in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  let client, t = Clients.Redundant_cmp.make () in
  let rt = Rio.create ~client m in
  ignore (Rio.run rt);
  check_ilist "behaviour preserved" native (Vm.Machine.output m);
  checkb "a duplicate was eliminated" true (t.Clients.Redundant_cmp.removed >= 1)

(* ------------------------------------------------------------------ *)
(* Behavioural tests on workloads                                     *)
(* ------------------------------------------------------------------ *)

open Workloads

let run_pair w client =
  let n = Workload.run_native w in
  let r, rt = Workload.run_rio ~client w in
  checkb (w.Workload.name ^ " native ok") true n.ok;
  checkb (w.Workload.name ^ " rio ok") true r.ok;
  check_ilist (w.Workload.name ^ " outputs equal") n.output r.output;
  (n, r, rt)

let test_rlr_speeds_up_mgrid () =
  let w = Option.get (Suite.by_name "mgrid") in
  let null, _, _ = (fun () -> run_pair w Rio.Types.null_client) () in
  let _, rlr, _ = run_pair w (Clients.Rlr.make ()) in
  ignore null;
  let base, _ = Workload.run_rio w in
  checkb "rlr beats base RIO on mgrid" true (rlr.cycles < base.cycles);
  (* the paper's headline: a substantial speedup over native *)
  let n = Workload.run_native w in
  checkb "rlr beats native on mgrid" true
    (float_of_int rlr.cycles < 0.85 *. float_of_int n.cycles)

let test_ibdispatch_cuts_lookups () =
  let w = Option.get (Suite.by_name "gap") in
  let _, _, rt_null = run_pair w Rio.Types.null_client in
  let _, _, rt_ib = run_pair w (Clients.Ibdispatch.make ()) in
  let l0 = (Rio.stats rt_null).Rio.Stats.ibl_lookups in
  let l1 = (Rio.stats rt_ib).Rio.Stats.ibl_lookups in
  checkb "lookups reduced by > 4x" true (l1 * 4 < l0)

let test_ibdispatch_rewrites_own_trace () =
  let w = Option.get (Suite.by_name "eon") in
  let _, _, rt = run_pair w (Clients.Ibdispatch.make ()) in
  checkb "trace was rewritten" true
    ((Rio.stats rt).Rio.Stats.fragments_replaced >= 1)

let test_ctraces_elides_returns () =
  let w = Option.get (Suite.by_name "vortex") in
  let client, t = Clients.Ctraces.make () in
  let _, r, _ = run_pair w client in
  checkb "returns elided" true (t.Clients.Ctraces.returns_elided >= 1);
  let base, _ = Workload.run_rio w in
  checkb "ctraces beats base RIO on vortex" true (r.cycles < base.cycles)

let test_combined_all_equivalent () =
  List.iter
    (fun w -> ignore (run_pair w (Clients.Compose.all_four ())))
    [ Option.get (Suite.by_name "crafty"); Option.get (Suite.by_name "swim") ]

(* ------------------------------------------------------------------ *)
(* Instrumentation clients                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_dynamic () =
  let w = Option.get (Suite.by_name "vpr") in
  let client, counts = Clients.Counter.make ~dynamic:true () in
  let n = Workload.run_native w in
  let r, _ = Workload.run_rio ~client w in
  check_ilist "output intact" n.output r.output;
  checkb "block executions counted" true
    (counts.Clients.Counter.dynamic_blocks > 1000);
  checkb "static instrs seen" true (counts.Clients.Counter.static_insns > 10)

let test_emitted_counter_matches_clean_calls () =
  (* the in-cache counters must agree exactly with clean-call counting,
     at much lower overhead *)
  let w = Option.get (Suite.by_name "vpr") in
  let n = Workload.run_native w in
  let cc_client, cc_counts = Clients.Counter.make ~dynamic:true () in
  let cc_run, _ = Workload.run_rio ~client:cc_client w in
  let em_client, read = Clients.Counter.For_testing.make_emitted () in
  let em_run, _ = Workload.run_rio ~client:em_client w in
  check_ilist "clean-call output intact" n.output cc_run.output;
  check_ilist "emitted output intact" n.output em_run.output;
  let em_total = List.fold_left (fun a (_, c) -> a + c) 0 (read ()) in
  checkb "same total count" true
    (em_total = cc_counts.Clients.Counter.dynamic_blocks);
  (* per-tag agreement *)
  List.iter
    (fun (tag, c) ->
      let cc = Option.value (Hashtbl.find_opt cc_counts.Clients.Counter.executions tag) ~default:0 in
      checkb (Printf.sprintf "tag 0x%x agrees" tag) true (c = cc))
    (read ());
  checkb "emitted counters cost less than clean calls" true
    (em_run.cycles < cc_run.cycles)

let test_opmix_exact () =
  (* the folded in-cache counters must equal a clean-call ground truth *)
  let w = Option.get (Suite.by_name "gzip") in
  let n = Workload.run_native w in
  let client, t = Clients.Opmix.make () in
  let r, _ = Workload.run_rio ~client w in
  check_ilist "output intact" n.output r.output;
  let mix = Clients.Opmix.For_testing.dynamic_mix t in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 mix in
  (* the dynamic instruction total must match the machine's retired
     count for the app portion; we check it is plausibly large and that
     the hot opcode is a load/compare from the scan loop *)
  checkb "counted a hot workload" true (total > 20_000);
  (match mix with
   | (top, cnt) :: _ ->
       checkb "top opcode is hot" true (cnt > 2_000);
       checkb "top opcode is from the scan loop" true
         (List.mem (Isa.Opcode.name top) [ "mov"; "cmp"; "movzx8"; "inc"; "add"; "xor"; "shl"; "jmp"; "jl"; "jnz" ])
   | [] -> Alcotest.fail "empty mix")

let test_shepherd_blocks_injection () =
  let open Asm.Dsl in
  let shellcode =
    let b = Buffer.create 8 in
    List.iter
      (fun insn -> Buffer.add_bytes b (Isa.Encode.encode_exn ~pc:0 insn))
      [ Isa.Insn.mk_out (Isa.Operand.Imm 666); Isa.Insn.mk_hlt () ];
    Buffer.contents b
  in
  let attack =
    program ~name:"inject" ~entry:"main"
      ~text:[ label "main"; li eax "payload"; jmp_ind eax ]
      ~data:[ label "payload"; bytes shellcode ]
      ()
  in
  let image = Asm.Assemble.assemble attack in
  (* without the shepherd the attack "succeeds" under the cache too *)
  let m0 = Vm.Machine.create () in
  ignore (Asm.Image.load m0 image);
  let rt0 = Rio.create m0 in
  ignore (Rio.run rt0);
  check_ilist "undefended: shellcode ran" [ 666 ] (Vm.Machine.output m0);
  (* with it, the program is terminated before the first injected block *)
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  let client, t = Clients.Shepherd.make (Clients.Shepherd.policy_of_image image) in
  let rt = Rio.create ~client m in
  let o = Rio.run rt in
  checkb "terminated" true
    (match o.Rio.reason with Rio.App_fault _ -> true | _ -> false);
  check_ilist "no output escaped" [] (Vm.Machine.output m);
  checkb "violation recorded" true (t.Clients.Shepherd.violations = 1)

let test_raising_client_composed_with_optimizer () =
  (* a crashing client riding alongside a real optimizer must not cost
     the application its output; after quarantine the run continues
     (unoptimized) to the correct result *)
  let crasher =
    {
      Rio.Types.null_client with
      name = "crasher";
      basic_block = Some (fun _ ~tag:_ _ -> failwith "crasher: boom");
    }
  in
  let client =
    Clients.Compose.compose [ crasher; Clients.Strength.make ~on_bb:true ]
  in
  let w = Option.get (Suite.by_name "gzip") in
  let n = Workload.run_native w in
  let r, rt = Workload.run_rio ~client w in
  checkb "finished" true r.ok;
  check_ilist "output intact" n.output r.output;
  let s = Rio.stats rt in
  checkb "failures recorded" true (s.Rio.Stats.hook_failures > 0);
  checki "quarantined once" 1 s.Rio.Stats.clients_quarantined

let test_edgeprof_records_hot_edges () =
  let w = Option.get (Suite.by_name "gzip") in
  let client, t = Clients.Edgeprof.make () in
  let n = Workload.run_native w in
  let r, _ = Workload.run_rio ~client w in
  check_ilist "output intact" n.output r.output;
  let hot = Clients.Edgeprof.hot_edges t 3 in
  checkb "edges recorded" true (List.length hot = 3);
  let _, _, c = List.hd hot in
  checkb "hottest edge is hot" true (c > 1000)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "clients"
    [
      ( "rlr",
        [
          Alcotest.test_case "removes same-reg reload" `Quick test_rlr_removes_same_reg_reload;
          Alcotest.test_case "rewrites cross-reg reload" `Quick test_rlr_rewrites_cross_reg_reload;
          Alcotest.test_case "store forwarding" `Quick test_rlr_store_forwarding;
          Alcotest.test_case "aliasing store kills" `Quick test_rlr_aliasing_store_kills;
          Alcotest.test_case "disjoint store preserves" `Quick test_rlr_disjoint_store_preserves;
          Alcotest.test_case "holder clobber kills" `Quick test_rlr_clobbered_holder_kills;
          Alcotest.test_case "base clobber kills" `Quick test_rlr_base_reg_clobber_kills;
          Alcotest.test_case "push kills esp facts" `Quick test_rlr_push_kills_esp_facts;
          Alcotest.test_case "push kills other-base facts" `Quick
            test_rlr_push_kills_other_base_facts;
          Alcotest.test_case "fp reload removed" `Quick test_rlr_fp_reload_removed;
          Alcotest.test_case "fp clobber kills" `Quick test_rlr_fp_clobber_kills;
        ] );
      ( "strength",
        [
          Alcotest.test_case "converts when CF dead" `Quick test_strength_converts_when_cf_dead;
          Alcotest.test_case "dec to sub" `Quick test_strength_dec_to_sub;
          Alcotest.test_case "blocked by CF read" `Quick test_strength_blocked_by_cf_read;
          Alcotest.test_case "blocked at exit" `Quick test_strength_blocked_at_exit;
          Alcotest.test_case "semantics preserved" `Quick test_strength_preserves_semantics;
        ] );
      ( "redundant-cmp",
        [
          Alcotest.test_case "removes duplicate" `Quick test_rcmp_removes_duplicate;
          Alcotest.test_case "blocked by operand write" `Quick test_rcmp_blocked_by_operand_write;
          Alcotest.test_case "blocked by flag write" `Quick test_rcmp_blocked_by_flag_write;
          Alcotest.test_case "blocked by aliasing store" `Quick test_rcmp_blocked_by_aliasing_store;
          Alcotest.test_case "blocked by push" `Quick test_rcmp_blocked_by_push;
          Alcotest.test_case "adjacent int store" `Quick test_rcmp_adjacent_int_store;
          Alcotest.test_case "blocked by wide fp store" `Quick
            test_rcmp_blocked_by_wide_fp_store;
          Alcotest.test_case "whole program" `Quick test_rcmp_whole_program;
        ] );
      ( "optimization effects",
        [
          Alcotest.test_case "rlr speeds up mgrid" `Slow test_rlr_speeds_up_mgrid;
          Alcotest.test_case "ibdispatch cuts lookups" `Slow test_ibdispatch_cuts_lookups;
          Alcotest.test_case "ibdispatch rewrites trace" `Slow test_ibdispatch_rewrites_own_trace;
          Alcotest.test_case "ctraces elides returns" `Slow test_ctraces_elides_returns;
          Alcotest.test_case "combined equivalent" `Slow test_combined_all_equivalent;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "dynamic counter" `Slow test_counter_dynamic;
          Alcotest.test_case "emitted counters" `Slow test_emitted_counter_matches_clean_calls;
          Alcotest.test_case "opcode mix" `Slow test_opmix_exact;
          Alcotest.test_case "shepherd blocks injection" `Quick test_shepherd_blocks_injection;
          Alcotest.test_case "raising client contained" `Slow test_raising_client_composed_with_optimizer;
          Alcotest.test_case "edge profiler" `Slow test_edgeprof_records_hot_edges;
        ] );
    ]

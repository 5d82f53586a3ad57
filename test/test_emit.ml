(** White-box tests of the mangling and emission layers: the exact
    instruction sequences mangling produces, the byte-level layout of
    emitted fragments and stubs, link/unlink patching, and the
    canonical client view reconstructed by [decode_fragment]. *)

open Isa
open Rio.Types

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_slist = Alcotest.(check (list string))

let opcodes il =
  List.map (fun i -> Opcode.name (Rio.Instr.get_opcode i)) (Rio.Instrlist.to_list il)

(* decoded Level-3 instr at an app address, from real bytes *)
let decoded_at addr insn =
  let raw = Encode.encode_exn ~pc:addr insn in
  let f a = Char.code (Bytes.get raw (a - addr)) in
  let insn', _ = Decode.full_exn f addr in
  Rio.Instr.of_decoded ~addr ~raw insn'

let il_of list =
  let il = Rio.Instrlist.create () in
  List.iter (Rio.Instrlist.append il) list;
  il

(* ------------------------------------------------------------------ *)
(* Mangling                                                           *)
(* ------------------------------------------------------------------ *)

let test_mangle_direct_call () =
  let il = il_of [ decoded_at 0x1000 (Insn.mk_call 0x2000) ] in
  Rio.Mangle.mangle_il ~tid:0 il;
  check_slist "call -> push; jmp" [ "push"; "jmp" ] (opcodes il);
  let push = Option.get (Rio.Instrlist.first il) in
  let call_len = Bytes.length (Encode.encode_exn ~pc:0x1000 (Insn.mk_call 0x2000)) in
  checkb "pushes the app return address" true
    (Operand.equal (Rio.Instr.get_src push 0) (Operand.Imm (0x1000 + call_len)));
  let jmp = Option.get (Rio.Instrlist.last il) in
  checki "jmp to callee" 0x2000 (Operand.get_target (Rio.Instr.get_src jmp 0))

let test_mangle_ret () =
  let il = il_of [ decoded_at 0x1000 (Insn.mk_ret ()) ] in
  Rio.Mangle.mangle_il ~tid:3 il;
  check_slist "ret -> pop; jmp" [ "pop"; "jmp" ] (opcodes il);
  let pop = Option.get (Rio.Instrlist.first il) in
  let slot = tls_addr ~tid:3 ~slot:slot_ibl_target in
  checkb "pops into thread 3's ibl slot" true
    (Operand.equal (Rio.Instr.get_dst pop 0) (Operand.mem_abs slot));
  let jmp = Option.get (Rio.Instrlist.last il) in
  checki "jmp to IND(ret)" (ind_token Ind_ret)
    (Operand.get_target (Rio.Instr.get_src jmp 0))

let test_mangle_jmp_ind_reg () =
  let il = il_of [ decoded_at 0x1000 (Insn.mk_jmp_ind (Operand.Reg Reg.Ecx)) ] in
  Rio.Mangle.mangle_il ~tid:0 il;
  check_slist "jmp* reg -> mov; jmp" [ "mov"; "jmp" ] (opcodes il)

let test_mangle_jmp_ind_mem_spills () =
  (* a memory-indirect jump needs an eax spill around the target copy *)
  let il =
    il_of [ decoded_at 0x1000 (Insn.mk_jmp_ind (Operand.mem_base ~disp:8 Reg.Esi)) ]
  in
  Rio.Mangle.mangle_il ~tid:0 il;
  check_slist "jmp* mem -> spill sequence"
    [ "mov"; "mov"; "mov"; "mov"; "jmp" ]
    (opcodes il)

let test_mangle_call_ind () =
  let il = il_of [ decoded_at 0x1000 (Insn.mk_call_ind (Operand.Reg Reg.Edx)) ] in
  Rio.Mangle.mangle_il ~tid:0 il;
  check_slist "call* -> mov; push; jmp" [ "mov"; "push"; "jmp" ] (opcodes il);
  let jmp = Option.get (Rio.Instrlist.last il) in
  checki "jmp to IND(call*)" (ind_token Ind_call)
    (Operand.get_target (Rio.Instr.get_src jmp 0))

let test_mangle_leaves_plain_code () =
  let il =
    il_of
      [
        Rio.Create.add (Operand.Reg Reg.Eax) (Operand.Imm 1);
        Rio.Create.jcc Cond.Z 0x3000;
        Rio.Create.jmp 0x4000;
      ]
  in
  Rio.Mangle.mangle_il ~tid:0 il;
  check_slist "direct flow untouched" [ "add"; "jz"; "jmp" ] (opcodes il)

let test_inline_check_shape () =
  let flagless = Rio.Mangle.inline_check ~tid:0 ~expected:0x2000 ~kind:Ind_ret ~flags_live:false in
  check_slist "bare check" [ "cmp"; "jnz" ]
    (List.map (fun i -> Opcode.name (Rio.Instr.get_opcode i)) flagless);
  let flagged = Rio.Mangle.inline_check ~tid:0 ~expected:0x2000 ~kind:Ind_ret ~flags_live:true in
  check_slist "flag-preserving check"
    [ "pushf"; "pop"; "cmp"; "jnz"; "push"; "popf" ]
    (List.map (fun i -> Opcode.name (Rio.Instr.get_opcode i)) flagged);
  (* the miss branch carries a flags-restoring stub *)
  let jne = List.nth flagged 3 in
  match Rio.Api.get_custom_stub jne with
  | Some (sil, false) ->
      check_slist "stub restores flags" [ "push"; "popf" ]
        (List.map (fun i -> Opcode.name (Rio.Instr.get_opcode i))
           (Rio.Instrlist.to_list sil))
  | _ -> Alcotest.fail "missing stub note"

(* ------------------------------------------------------------------ *)
(* Emission, linking, cache-resident decode                           *)
(* ------------------------------------------------------------------ *)

(* a minimal runtime over an empty machine *)
let mk_rt () =
  let m = Vm.Machine.create () in
  let rt = Rio.create m in
  let thread = Vm.Machine.add_thread m ~entry:0x1000 ~stack_top:0x7F0000 in
  let ts = Rio.Engine.For_testing.make_thread_state rt thread in
  (rt, ts)

let body_il () =
  il_of
    [
      Rio.Create.add (Operand.Reg Reg.Eax) (Operand.Imm 1);
      Rio.Create.jcc Cond.Z 0x3000;
      Rio.Create.jmp 0x2000;
    ]

let fetch_of rt = Vm.Memory.fetch (Vm.Machine.mem rt.machine)

let test_emit_layout () =
  let rt, ts = mk_rt () in
  let frag = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 (body_il ()) in
  checki "two exits" 2 (Array.length frag.exits);
  checkb "entry below body_end below total_end" true
    (frag.entry < frag.body_end && frag.body_end < frag.total_end);
  (* both exit CTIs initially target their own stubs *)
  Array.iter
    (fun e ->
      let insn, _ = Decode.full_exn (fetch_of rt) e.branch_pc in
      checki "exit targets its stub" e.stub_pc (Operand.get_target (Insn.src insn 0));
      (* and each stub's final jmp targets the exit's trap token *)
      let sj, _ = Decode.full_exn (fetch_of rt) e.stub_jmp_pc in
      checki "stub jmp targets token" (token_of_exit e)
        (Operand.get_target (Insn.src sj 0)))
    frag.exits

let test_link_unlink_patching () =
  let rt, ts = mk_rt () in
  let a = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 (body_il ()) in
  let b = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x2000 (body_il ()) in
  let e = a.exits.(1) (* the jmp exit, target 0x2000 *) in
  checki "direct exit target tag" 0x2000 e.target_tag;
  Rio.Emit.link rt e b;
  let insn, _ = Decode.full_exn (fetch_of rt) e.branch_pc in
  checki "linked branch targets b's entry" b.entry
    (Operand.get_target (Insn.src insn 0));
  checkb "incoming recorded" true (List.memq e b.incoming);
  Rio.Emit.unlink rt e;
  let insn, _ = Decode.full_exn (fetch_of rt) e.branch_pc in
  checki "unlink restores stub target" e.stub_pc
    (Operand.get_target (Insn.src insn 0));
  checkb "incoming cleared" true (b.incoming = [])

(* --- patch_branch: the rel32 of a long branch, rewritten in place --- *)

let bytes_at rt ~pc ~len = Vm.Memory.read_bytes (Vm.Machine.mem rt.machine) ~addr:pc ~len

let put_bytes rt ~pc b =
  Vm.Memory.blit_bytes (Vm.Machine.mem rt.machine) ~src:b ~src_pos:0 ~dst:pc
    ~len:(Bytes.length b)

let test_patch_retargets_long_branches () =
  let rt, ts = mk_rt () in
  let frag = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 (body_il ()) in
  (* the jcc and the jmp exit, then a stub jump; targets on both sides
     of the site, and one whose displacement wraps past 2^31 *)
  let sites =
    [ frag.exits.(0).branch_pc; frag.exits.(1).branch_pc; frag.exits.(1).stub_jmp_pc ]
  in
  List.iter
    (fun pc ->
      List.iter
        (fun target ->
          let before, len = Decode.full_exn (fetch_of rt) pc in
          let expected =
            Encode.encode_exn ~long:true ~pc
              (match before.Insn.opcode with
               | Opcode.Jcc c -> Insn.mk_jcc c target
               | _ -> Insn.mk_jmp target)
          in
          Rio.Emit.patch_branch rt ~pc ~target;
          checkb
            (Printf.sprintf "site 0x%x -> 0x%x: decode-then-re-encode bytes" pc target)
            true
            (Bytes.equal (bytes_at rt ~pc ~len) expected))
        [ frag.entry; pc + 0x10_0000; 0x1000; pc + (1 lsl 31) + 7 ])
    sites

let expect_rio_error expected f =
  match f () with
  | () -> Alcotest.failf "expected Rio_error %S" expected
  | exception Rio_error msg -> Alcotest.(check string) "error" expected msg

let test_patch_refuses_short_branches () =
  let rt, ts = mk_rt () in
  let frag = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 (body_il ()) in
  let jcc = frag.exits.(0) and jmp = frag.exits.(1) in
  checki "the site is a long jcc" 6 (Option.get (Rio.Emit.patch_site_len rt ~pc:jcc.branch_pc));
  checki "the site is a long jmp" 5 (Option.get (Rio.Emit.patch_site_len rt ~pc:jmp.branch_pc));
  (* rel8 forms of both branches: a patch would change their length *)
  put_bytes rt ~pc:jcc.branch_pc (Encode.encode_exn ~pc:jcc.branch_pc (Insn.mk_jcc Cond.Z jcc.stub_pc));
  put_bytes rt ~pc:jmp.branch_pc (Encode.encode_exn ~pc:jmp.branch_pc (Insn.mk_jmp jmp.stub_pc));
  checki "the jcc is now rel8" 2 (snd (Decode.full_exn (fetch_of rt) jcc.branch_pc));
  List.iter
    (fun (e : exit_) ->
      checkb "a rel8 site is not patchable" true
        (Rio.Emit.patch_site_len rt ~pc:e.branch_pc = None);
      let before = bytes_at rt ~pc:e.branch_pc ~len:2 in
      expect_rio_error
        (Printf.sprintf "patch_branch: length drift at 0x%x" e.branch_pc)
        (fun () -> Rio.Emit.patch_branch rt ~pc:e.branch_pc ~target:frag.entry);
      checkb "refused patch leaves the bytes" true
        (Bytes.equal before (bytes_at rt ~pc:e.branch_pc ~len:2)))
    [ jcc; jmp ]

let test_patch_refuses_non_branches () =
  let rt, ts = mk_rt () in
  let frag = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 (body_il ()) in
  (* the body's first instruction is the add *)
  checkb "an add is not patchable" true (Rio.Emit.patch_site_len rt ~pc:frag.entry = None);
  let not_a_branch = Printf.sprintf "patch_branch: not a direct branch at 0x%x" frag.entry in
  expect_rio_error not_a_branch (fun () ->
      Rio.Emit.patch_branch rt ~pc:frag.entry ~target:0x2000);
  (* nor is a call rel32, whose shape is otherwise the jmp's *)
  put_bytes rt ~pc:frag.entry (Encode.encode_exn ~pc:frag.entry (Insn.mk_call 0x2000));
  expect_rio_error not_a_branch (fun () ->
      Rio.Emit.patch_branch rt ~pc:frag.entry ~target:0x3000)

let test_patch_invalidates_icache () =
  (* 0x1000: jmp 0x1100; 0x1100: out 1; hlt; 0x1200: out 2; hlt *)
  let rt, ts = mk_rt () in
  let m = rt.machine in
  let put pc insns =
    ignore
      (List.fold_left
         (fun pc i ->
           let b = Encode.encode_exn ~long:true ~pc i in
           put_bytes rt ~pc b;
           pc + Bytes.length b)
         pc insns)
  in
  put 0x1000 [ Insn.mk_jmp 0x1100 ];
  put 0x1100 [ Insn.mk_out (Operand.Imm 1); Insn.mk_hlt () ];
  put 0x1200 [ Insn.mk_out (Operand.Imm 2); Insn.mk_hlt () ];
  let t = ts.thread in
  let run () =
    t.Vm.Machine.pc <- 0x1000;
    t.Vm.Machine.alive <- true;
    match Vm.Interp.run m t ~budget:10_000 ~emulate:false with
    | Vm.Interp.Halted -> ()
    | s -> Alcotest.failf "stopped: %s" (Vm.Interp.stop_to_string s)
  in
  run ();
  Rio.Emit.patch_branch rt ~pc:0x1000 ~target:0x1200;
  run ();
  Alcotest.(check (list int)) "the second run follows the patched target" [ 1; 2 ]
    (Vm.Machine.output m)

let test_decode_fragment_canonical () =
  let rt, ts = mk_rt () in
  let il = body_il () in
  (* attach a custom stub to the jcc so the roundtrip preserves it *)
  let jcc = List.nth (Rio.Instrlist.to_list il) 1 in
  let sil = il_of [ Rio.Create.nop () ] in
  Rio.Api.set_custom_stub jcc sil;
  let frag = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 il in
  (* link one exit: the client view must still show the app target *)
  let b = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x2000 (body_il ()) in
  Rio.Emit.link rt frag.exits.(1) b;
  let view = Rio.Emit.decode_fragment_il rt frag in
  check_slist "client view shape" [ "add"; "jz"; "jmp" ] (opcodes view);
  let vl = Rio.Instrlist.to_list view in
  checki "jcc target is app tag" 0x3000
    (Operand.get_target (Rio.Instr.get_src (List.nth vl 1) 0));
  checki "linked jmp still shows app tag" 0x2000
    (Operand.get_target (Rio.Instr.get_src (List.nth vl 2) 0));
  (match Rio.Api.get_custom_stub (List.nth vl 1) with
   | Some (s, false) -> check_slist "stub survived" [ "nop" ] (opcodes s)
   | _ -> Alcotest.fail "stub note lost")

let test_mangled_ret_roundtrip () =
  (* a mangled ret emits, decodes back to the canonical IND token form *)
  let rt, ts = mk_rt () in
  let il = il_of [ decoded_at 0x1000 (Insn.mk_ret ()) ] in
  Rio.Mangle.mangle_il ~tid:ts.ts_tid il;
  let frag = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 il in
  checkb "one indirect exit" true
    (Array.length frag.exits = 1
    && frag.exits.(0).e_kind = Exit_indirect Ind_ret);
  let view = Rio.Emit.decode_fragment_il rt frag in
  check_slist "view: pop; jmp" [ "pop"; "jmp" ] (opcodes view);
  let jmp = Option.get (Rio.Instrlist.last view) in
  checki "view jmp shows IND(ret)" (ind_token Ind_ret)
    (Operand.get_target (Rio.Instr.get_src jmp 0))

let test_stub_exits_emit () =
  (* an exit CTI inside a custom stub becomes a secondary exit with its
     own stub (the Figure-4 chain mechanism) *)
  let rt, ts = mk_rt () in
  let il = body_il () in
  let jcc = List.nth (Rio.Instrlist.to_list il) 1 in
  let sil =
    il_of
      [
        Rio.Create.cmp (Operand.Reg Reg.Eax) (Operand.Imm 5);
        Rio.Create.jcc Cond.Z 0x5000;
      ]
  in
  Rio.Api.set_custom_stub jcc sil;
  let frag = Rio.Emit.emit_fragment rt ts ~kind:Bb ~tag:0x1000 il in
  checki "three exits (2 body + 1 stub)" 3 (Array.length frag.exits);
  let sec =
    Array.to_list frag.exits
    |> List.find (fun e -> e.target_tag = 0x5000)
  in
  checkb "secondary exit lives in stub space" true (sec.branch_pc >= frag.body_end)

let test_sideline_equivalence () =
  (* sideline optimization must not change behaviour, only accounting *)
  let w = Option.get (Workloads.Suite.by_name "vortex") in
  let n = Workloads.Workload.run_native w in
  let r, rt =
    Workloads.Workload.run_rio
      ~opts:{ Rio.Options.default with sideline = true }
      ~client:(Clients.Compose.all_four ()) w
  in
  checkb "ok" true (r.ok && n.ok);
  Alcotest.(check (list int)) "output equal" n.output r.output;
  checkb "cycles were offloaded" true
    ((Rio.stats rt).Rio.Stats.sideline_cycles > 0)

(* ------------------------------------------------------------------ *)
(* Emission digest: every byte image ever written into the cache       *)
(* ------------------------------------------------------------------ *)

(* rio_run's defaults, and the [pressure] configuration: -O3 in an 8 KB
   FIFO cache with compaction, where eviction, compaction moves and
   link churn all re-stamp checksums *)
let rio_run_opts = { Rio.Options.default with max_cycles = max_int / 2 }

let pressure_opts =
  {
    rio_run_opts with
    opt_level = 3;
    cache_capacity = Some 8192;
    flush_policy = Rio.Options.Flush_fifo;
    cache_compaction = true;
  }

(* (program, digest at defaults, digest under pressure).  These values
   fold the (kind, tag, entry, size, checksum) of every emission and
   every checksum re-stamp, so any change to a cache byte the emitter
   or a patch writes moves them.  They may change only with a
   deliberate change to the cache image format. *)
let golden_digests =
  [
    ("gzip", 0x1a59e62960f1ef95, 0x2652fd55b37d5bd5);
    ("vpr", 0x292921fccd63e00e, 0x6b7ac71d379870);
    ("parser", 0x2a40ad4acd6773bc, 0x37d2c7cf2036802b);
    ("gcc", 0x16cea35d55f996b4, 0x32f2000a9f6c1e40);
    ("mcf", 0x3f953a27c5db1bd8, 0x30157b993209f065);
    ("crafty", 0x269f0aab86bc6839, 0x2703a26dfa8c6b55);
    ("eon", 0x17fbdb01c726c022, 0x133c6254a9765bc9);
    ("perlbmk", 0x1d029fd02b0c579b, 0x1ea2052b5f58aad4);
    ("gap", 0x1c6d9700ba61623e, 0x7b8e8016eb54a80);
    ("vortex", 0x6b87f52db8d7986, 0x1936e879eca611d1);
    ("bzip2", 0x65fbb41dc188dbc, 0x7f649782472af65);
    ("twolf", 0x3a6113404ace1cdf, 0x14828787eebe8581);
    ("wupwise", 0xbd2ec35634c19ff, 0x1dbfbd7eadfdb3b);
    ("swim", 0x357c8177c862f1e1, 0x11055f1ab835eb99);
    ("mgrid", 0x134b1356529f882, 0x1ae79747b7400140);
    ("applu", 0x3a05a8c2d3452927, 0x1befbfb923ad5e13);
    ("mesa", 0xa925759e4bf6217, 0x9463afe9508709c);
    ("art", 0xc3526b3c17e43a7, 0x1f5049ad31bd4cc0);
    ("equake", 0x1e7362e44c58538e, 0x10f54eb4518f18bc);
    ("ammp", 0x5fb16339ffd987e, 0xcbc2fb30536c8fc);
  ]

let test_emit_digests () =
  let digest opts w =
    let r, rt = Workloads.Workload.run_rio ~opts w in
    if not r.ok then Alcotest.failf "%s: %s" w.Workloads.Workload.name r.detail;
    rt.emit_digest
  in
  let bad = ref [] in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let d = digest rio_run_opts w and p = digest pressure_opts w in
      match List.find_opt (fun (n, _, _) -> n = w.name) golden_digests with
      | Some (_, d0, p0) when d0 = d && p0 = p -> ()
      | _ -> bad := Printf.sprintf "(%S, 0x%x, 0x%x);" w.name d p :: !bad)
    Workloads.Suite.all;
  if !bad <> [] then
    Alcotest.failf "emission digests moved; actual:\n%s"
      (String.concat "\n" (List.rev !bad))

(* Translation allocates: gcc under pressure builds ~16k blocks and
   ~3.5k traces.  A regression in the per-fragment fixed cost of
   emission (a copy, a re-encode, a per-branch buffer) shows here as
   minor words per emitted fragment over the whole run.  The run
   measures 952 words per fragment; the budget is that plus 10%.
   Emission through the template-matching encoder, with a fresh
   [Bytes] per branch and a [Buffer] copy of the image, measured 1464. *)
let words_per_fragment_budget = 1047.

let test_emit_allocation () =
  let w = Option.get (Workloads.Suite.by_name "gcc") in
  let before = Gc.minor_words () in
  let r, rt = Workloads.Workload.run_rio ~opts:pressure_opts w in
  let words = Gc.minor_words () -. before in
  checkb "gcc under pressure ok" true r.ok;
  let s = Rio.stats rt in
  let per = words /. float_of_int (s.Rio.Stats.blocks_built + s.Rio.Stats.traces_built) in
  if per > words_per_fragment_budget then
    Alcotest.failf "%.0f minor words per emitted fragment (budget %.0f)" per
      words_per_fragment_budget

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "emit"
    [
      ( "mangling",
        [
          Alcotest.test_case "direct call" `Quick test_mangle_direct_call;
          Alcotest.test_case "ret" `Quick test_mangle_ret;
          Alcotest.test_case "jmp* via register" `Quick test_mangle_jmp_ind_reg;
          Alcotest.test_case "jmp* via memory spills" `Quick test_mangle_jmp_ind_mem_spills;
          Alcotest.test_case "call*" `Quick test_mangle_call_ind;
          Alcotest.test_case "plain code untouched" `Quick test_mangle_leaves_plain_code;
          Alcotest.test_case "inline check shapes" `Quick test_inline_check_shape;
        ] );
      ( "emission",
        [
          Alcotest.test_case "fragment layout" `Quick test_emit_layout;
          Alcotest.test_case "link/unlink patching" `Quick test_link_unlink_patching;
          Alcotest.test_case "patch retargets long branches" `Quick
            test_patch_retargets_long_branches;
          Alcotest.test_case "patch refuses rel8 branches" `Quick
            test_patch_refuses_short_branches;
          Alcotest.test_case "patch refuses non-branches" `Quick
            test_patch_refuses_non_branches;
          Alcotest.test_case "patch invalidates the icache" `Quick
            test_patch_invalidates_icache;
          Alcotest.test_case "canonical client view" `Quick test_decode_fragment_canonical;
          Alcotest.test_case "mangled ret roundtrip" `Quick test_mangled_ret_roundtrip;
          Alcotest.test_case "exits inside stubs" `Quick test_stub_exits_emit;
        ] );
      ( "digest",
        [ Alcotest.test_case "20 programs, defaults and pressure" `Quick test_emit_digests ] );
      ( "allocation",
        [ Alcotest.test_case "minor words per fragment, gcc under pressure" `Quick
            test_emit_allocation ] );
      ( "sideline",
        [ Alcotest.test_case "equivalence + offload" `Slow test_sideline_equivalence ] );
    ]

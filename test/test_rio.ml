(** Tests for the RIO core: adaptive Instr levels, InstrList, flags
    analysis, mangling, emission/linking, cache-resident decode,
    fragment replacement, custom stubs, clean calls, trace building,
    custom traces, threads, and signals under the runtime. *)

open Isa

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Instr levels (paper §3.1)                                          *)
(* ------------------------------------------------------------------ *)

(* raw bytes for "add %ebx, $5; inc %ecx" at address 0x1000 *)
let sample_bytes () =
  let i1 = Insn.mk_add (Operand.Reg Reg.Ebx) (Operand.Imm 5) in
  let i2 = Insn.mk_inc (Operand.Reg Reg.Ecx) in
  let b1 = Encode.encode_exn ~pc:0x1000 i1 in
  let b2 = Encode.encode_exn ~pc:(0x1000 + Bytes.length b1) i2 in
  (Bytes.cat b1 b2, Bytes.length b1, Bytes.length b2)

let test_levels_bundle () =
  let raw, l1, l2 = sample_bytes () in
  let b = Rio.Instr.of_bundle ~addr:0x1000 raw in
  checkb "starts at L0" true (Rio.Instr.level b = Rio.Level.L0);
  checki "bundle length" (l1 + l2) (Rio.Instr.For_testing.length b);
  (* splitting happens through an InstrList *)
  let il = Rio.Instrlist.create () in
  Rio.Instrlist.append il b;
  Rio.Instrlist.split_bundles il;
  checki "split into two" 2 (Rio.Instrlist.length il);
  let first = Option.get (Rio.Instrlist.first il) in
  checkb "split gives L1" true (Rio.Instr.level first = Rio.Level.L1);
  checki "first piece len" l1 (Rio.Instr.For_testing.length first)

let test_levels_transitions () =
  let raw, l1, _ = sample_bytes () in
  let i = Rio.Instr.of_raw ~addr:0x1000 (Bytes.sub raw 0 l1) in
  checkb "L1" true (Rio.Instr.level i = Rio.Level.L1);
  (* reading the opcode raises to L2 *)
  checkb "opcode read" true (Rio.Instr.get_opcode i = Opcode.Add);
  checkb "now L2" true (Rio.Instr.level i = Rio.Level.L2);
  (* eflags at L2 *)
  checkb "add writes CF" true
    (Eflags.writes_flag (Rio.Instr.get_eflags i) Eflags.CF);
  (* reading operands raises to L3; raw bits stay valid *)
  checkb "src imm" true (Operand.equal (Rio.Instr.get_src i 0) (Operand.Imm 5));
  checkb "now L3" true (Rio.Instr.level i = Rio.Level.L3);
  (* mutation invalidates raw bits -> L4 *)
  Rio.Instr.set_src i 0 (Operand.Imm 7);
  checkb "now L4" true (Rio.Instr.level i = Rio.Level.L4);
  (* L4 still encodes *)
  let b = Rio.Instr.encode ~pc:0x1000 i in
  let i', _ = Decode.full_exn (Decode.fetch_bytes b) 0 in
  checkb "L4 re-encode" true
    (Operand.equal (Insn.src i' 0) (Operand.Imm 7))

let test_level_encode_copies_raw () =
  (* an L1 instruction encodes by copying its raw bytes verbatim *)
  let raw, l1, _ = sample_bytes () in
  let piece = Bytes.sub raw 0 l1 in
  let i = Rio.Instr.of_raw ~addr:0x1000 piece in
  checkb "raw copy" true (Bytes.equal (Rio.Instr.encode ~pc:0x9999 i) piece)

let test_cti_reencoded_at_new_pc () =
  (* a decoded CTI keeps its absolute target when re-encoded elsewhere *)
  let j = Insn.mk_jmp 0x2000 in
  let raw = Encode.encode_exn ~pc:0x1000 j in
  let f a = Char.code (Bytes.get raw (a - 0x1000)) in
  let insn, _ = Decode.full_exn f 0x1000 in
  let i = Rio.Instr.of_decoded ~addr:0x1000 ~raw insn in
  let b = Rio.Instr.encode ~pc:0x5000 i in
  let f5 a = Char.code (Bytes.get b (a - 0x5000)) in
  let insn', _ = Decode.full_exn f5 0x5000 in
  checki "target preserved" 0x2000 (Operand.get_target (Insn.src insn' 0))

let test_note_field () =
  let i = Rio.Create.nop () in
  checkb "no note" true (Rio.Instr.get_note i = Rio.Instr.No_note);
  Rio.Instr.set_note i (Rio.Instr.Int_note 42);
  checkb "int note" true (Rio.Instr.get_note i = Rio.Instr.Int_note 42)

(* ------------------------------------------------------------------ *)
(* InstrList                                                          *)
(* ------------------------------------------------------------------ *)

let mk_simple n = Rio.Create.mov (Operand.Reg Reg.Eax) (Operand.Imm n)

let il_imms il =
  List.map
    (fun i -> Operand.get_imm (Rio.Instr.get_src i 0))
    (Rio.Instrlist.to_list il)

let test_instrlist_ops () =
  let il = Rio.Instrlist.create () in
  let a = mk_simple 1 and b = mk_simple 2 and c = mk_simple 3 in
  Rio.Instrlist.append il b;
  Rio.Instrlist.prepend il a;
  Rio.Instrlist.append il c;
  check_ilist "append/prepend" [ 1; 2; 3 ] (il_imms il);
  let d = mk_simple 4 in
  Rio.Instrlist.insert_after il a d;
  check_ilist "insert_after" [ 1; 4; 2; 3 ] (il_imms il);
  let e = mk_simple 5 in
  Rio.Instrlist.insert_before il c e;
  check_ilist "insert_before" [ 1; 4; 2; 5; 3 ] (il_imms il);
  Rio.Instrlist.remove il d;
  check_ilist "remove" [ 1; 2; 5; 3 ] (il_imms il);
  let f = mk_simple 6 in
  Rio.Instrlist.replace il b f;
  check_ilist "replace" [ 1; 6; 5; 3 ] (il_imms il);
  checki "length" 4 (Rio.Instrlist.length il);
  checkb "owner enforced" true
    (match Rio.Instrlist.append il f with
     | exception Invalid_argument _ -> true
     | () -> false)

(* model-based property: a random sequence of list operations agrees
   with a pure-list reference model *)
let prop_instrlist_model =
  QCheck2.Test.make ~name:"instrlist agrees with a list model" ~count:500
    ~print:(fun ops -> String.concat ";" (List.map string_of_int ops))
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 999))
    (fun ops ->
      let il = Rio.Instrlist.create () in
      let model = ref [] in
      let fresh =
        let k = ref 0 in
        fun () -> incr k; mk_simple !k
      in
      let nth_instr n =
        let l = Rio.Instrlist.to_list il in
        List.nth l (n mod List.length l)
      in
      List.iter
        (fun op ->
          let len = List.length !model in
          match op mod 5 with
          | 0 ->
              let i = fresh () in
              Rio.Instrlist.append il i;
              model := !model @ [ i ]
          | 1 ->
              let i = fresh () in
              Rio.Instrlist.prepend il i;
              model := i :: !model
          | 2 when len > 0 ->
              let anchor = nth_instr (op / 5) in
              let i = fresh () in
              Rio.Instrlist.insert_after il anchor i;
              model :=
                List.concat_map
                  (fun x -> if x == anchor then [ x; i ] else [ x ])
                  !model
          | 3 when len > 0 ->
              let victim = nth_instr (op / 5) in
              Rio.Instrlist.remove il victim;
              model := List.filter (fun x -> x != victim) !model
          | 4 when len > 0 ->
              let old = nth_instr (op / 5) in
              let i = fresh () in
              Rio.Instrlist.replace il old i;
              model := List.map (fun x -> if x == old then i else x) !model
          | _ -> ())
        ops;
      let same_order =
        List.length !model = Rio.Instrlist.length il
        && List.for_all2 ( == ) !model (Rio.Instrlist.to_list il)
      in
      (* forward and backward traversals agree *)
      let backward =
        let rec go acc = function
          | None -> acc
          | Some i -> go (i :: acc) (Rio.Instrlist.prev i)
        in
        go [] (Rio.Instrlist.last il)
      in
      same_order
      && List.length backward = List.length !model
      && List.for_all2 ( == ) backward !model)

(* ------------------------------------------------------------------ *)
(* Flags analysis                                                     *)
(* ------------------------------------------------------------------ *)

let test_flags_dead () =
  let il = Rio.Instrlist.create () in
  (* cmp writes all flags before anything reads them: dead before *)
  Rio.Instrlist.append il (Rio.Create.cmp (Operand.Reg Reg.Eax) (Operand.Imm 0));
  Rio.Instrlist.append il (Rio.Create.jcc Cond.Z 0x4000);
  checkb "dead before full write" true
    (Rio.Flags_analysis.dead_after (Rio.Instrlist.first il))

let test_flags_live_via_jcc () =
  let il = Rio.Instrlist.create () in
  Rio.Instrlist.append il (Rio.Create.mov (Operand.Reg Reg.Eax) (Operand.Imm 0));
  Rio.Instrlist.append il (Rio.Create.jcc Cond.Z 0x4000);
  checkb "jcc reads flags: live" false
    (Rio.Flags_analysis.dead_after (Rio.Instrlist.first il))

let test_flags_live_at_exit () =
  let il = Rio.Instrlist.create () in
  Rio.Instrlist.append il (Rio.Create.mov (Operand.Reg Reg.Eax) (Operand.Imm 0));
  Rio.Instrlist.append il (Rio.Create.jmp 0x4000);
  (* leaving the fragment without writing flags: conservative live *)
  checkb "exit: conservative live" false
    (Rio.Flags_analysis.dead_after (Rio.Instrlist.first il))

let test_written_before_read () =
  let il = Rio.Instrlist.create () in
  Rio.Instrlist.append il (Rio.Create.inc (Operand.Reg Reg.Eax));   (* writes all but CF *)
  Rio.Instrlist.append il (Rio.Create.mov (Operand.Reg Reg.Ebx) (Operand.Imm 1));
  let written = Rio.Flags_analysis.For_testing.written_before_read (Rio.Instrlist.first il) in
  checkb "ZF certainly written" true (written land Eflags.bit Eflags.ZF <> 0);
  checkb "CF not written" true (written land Eflags.bit Eflags.CF = 0);
  (* an adc first READS CF: it must not count as written *)
  let il2 = Rio.Instrlist.create () in
  Rio.Instrlist.append il2 (Rio.Create.adc (Operand.Reg Reg.Eax) (Operand.Imm 0));
  let w2 = Rio.Flags_analysis.For_testing.written_before_read (Rio.Instrlist.first il2) in
  checkb "CF read-before-write excluded" true (w2 land Eflags.bit Eflags.CF = 0)

let test_flags_inc_partial () =
  (* inc writes all but CF; a later adc still reads CF: live *)
  let il = Rio.Instrlist.create () in
  Rio.Instrlist.append il (Rio.Create.inc (Operand.Reg Reg.Eax));
  Rio.Instrlist.append il (Rio.Create.adc (Operand.Reg Reg.Ebx) (Operand.Imm 0));
  Rio.Instrlist.append il (Rio.Create.cmp (Operand.Reg Reg.Eax) (Operand.Imm 0));
  Rio.Instrlist.append il (Rio.Create.jcc Cond.Z 0x4000);
  checkb "CF survives inc" false
    (Rio.Flags_analysis.dead_after (Rio.Instrlist.first il))

(* ------------------------------------------------------------------ *)
(* Runtime-level helpers                                              *)
(* ------------------------------------------------------------------ *)

open Asm.Dsl

let run_with ?(opts = Rio.Options.default) ?(client = Rio.Types.null_client)
    ?(input = []) ?(flow_log = false) prog =
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m input;
  ignore (Asm.Image.load m image);
  let rt = Rio.create ~opts ~client m in
  if flow_log then Rio.enable_flow_log rt;
  let o = Rio.run rt in
  (Vm.Machine.output m, o, rt)

let native_out prog =
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Vm.Sched.run ~emulate:false m);
  Vm.Machine.output m

let loop_prog n =
  program ~name:"p"
    ~text:
      [
        label "main"; mov eax (i 0); mov ecx (i 0);
        label "loop"; add eax ecx; inc ecx; cmp ecx (i n); j l "loop";
        out eax; hlt;
      ]
    ()

(* ------------------------------------------------------------------ *)
(* Dispatch / cache behaviour                                         *)
(* ------------------------------------------------------------------ *)

let test_rio_runs_program () =
  let out, o, _ = run_with (loop_prog 100) in
  checkb "halted" true (o.Rio.reason = Rio.All_exited);
  check_ilist "output" [ 4950 ] out

let test_trace_created_for_hot_loop () =
  let _, _, rt = run_with (loop_prog 500) in
  checkb "trace built" true ((Rio.stats rt).Rio.Stats.traces_built >= 1)

let test_no_trace_below_threshold () =
  let _, _, rt = run_with (loop_prog 10) in
  checki "no trace" 0 (Rio.stats rt).Rio.Stats.traces_built

let test_links_reduce_context_switches () =
  let _, _, rt_lnk = run_with (loop_prog 2000) in
  let opts =
    { Rio.Options.default with link_direct = false; link_indirect = false;
      enable_traces = false }
  in
  let _, _, rt_nolnk = run_with ~opts (loop_prog 2000) in
  checkb "links save context switches" true
    ((Rio.stats rt_lnk).Rio.Stats.context_switches * 10
    < (Rio.stats rt_nolnk).Rio.Stats.context_switches)

let test_table1_config_equivalence () =
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main"; mov eax (i 3); mov ecx (i 0);
          label "loop";
          call "f";
          inc ecx; cmp ecx (i 200); j l "loop";
          out eax; hlt;
          label "f"; imul eax (i 17); and_ eax (i 0xFFFF); ret;
        ]
      ()
  in
  let expected = native_out prog in
  List.iter
    (fun (name, opts) ->
      let opts = { opts with Rio.Options.max_cycles = 100_000_000 } in
      let out, o, _ = run_with ~opts prog in
      checkb (name ^ " ok") true (o.Rio.reason = Rio.All_exited);
      check_ilist name expected out)
    Rio.Options.table1_configs

let test_max_size_block () =
  (* a straight-line run longer than max_bb_insns: the builder must cap
     each block, chain them by fallthrough, and compute the same answer *)
  let n = 300 in
  let cap = Rio.Options.default.Rio.Options.max_bb_insns in
  assert (n > 2 * cap);
  let adds = List.init n (fun _ -> add eax (i 1)) in
  let prog =
    program ~name:"p"
      ~text:([ label "main"; mov eax (i 0) ] @ adds @ [ out eax; hlt ])
      ()
  in
  let expected = native_out prog in
  check_ilist "native sum" [ n ] expected;
  let out, o, rt = run_with prog in
  checkb "finished" true (o.Rio.reason = Rio.All_exited);
  check_ilist "output" expected out;
  (* 302 straight-line instructions at <= 128 per block: >= 3 blocks *)
  checkb "blocks capped" true
    ((Rio.stats rt).Rio.Stats.blocks_built >= (n + 2 + cap - 1) / cap)

(* ------------------------------------------------------------------ *)
(* Client hooks (Table 3)                                             *)
(* ------------------------------------------------------------------ *)

let test_hook_coverage () =
  let seen = Hashtbl.create 8 in
  let mark k = Hashtbl.replace seen k () in
  let client =
    {
      Rio.Types.name = "probe";
      init = (fun _ -> mark "init");
      exit_hook = (fun _ -> mark "exit");
      thread_init = (fun _ -> mark "thread_init");
      thread_exit = (fun _ -> mark "thread_exit");
      basic_block = Some (fun _ ~tag:_ _ -> mark "basic_block");
      trace_hook = Some (fun _ ~tag:_ _ -> mark "trace");
      end_trace = Some (fun _ ~trace_tag:_ ~next_tag:_ -> mark "end_trace";
                         Rio.Types.Default_end);
      fragment_deleted = None;
    }
  in
  let _, _, _ = run_with ~client (loop_prog 500) in
  List.iter
    (fun k -> checkb k true (Hashtbl.mem seen k))
    [ "init"; "exit"; "thread_init"; "thread_exit"; "basic_block"; "trace"; "end_trace" ]

let test_bb_hook_sees_app_code () =
  (* with a bb hook, instructions arrive split (L1) and walkable *)
  let saw_inc = ref false in
  let client =
    {
      Rio.Types.null_client with
      name = "probe";
      basic_block =
        Some
          (fun _ ~tag:_ il ->
            Rio.Instrlist.iter il (fun i ->
                if
                  (not (Rio.Instr.is_bundle i))
                  && Rio.Instr.get_opcode i = Opcode.Inc
                then saw_inc := true));
    }
  in
  ignore (run_with ~client (loop_prog 5));
  checkb "saw inc" true !saw_inc

let test_client_transform_applies () =
  (* a bb-hook transformation must change execution: replace the
     "inc ecx" with "add ecx, 2", halving iterations of the loop body
     semantics (sum changes) *)
  let client =
    {
      Rio.Types.null_client with
      name = "inc2add2";
      basic_block =
        Some
          (fun _ ~tag:_ il ->
            Rio.Instrlist.iter il (fun i ->
                if
                  (not (Rio.Instr.is_bundle i))
                  && Rio.Instr.get_opcode i = Opcode.Inc
                  && Operand.equal (Rio.Instr.get_dst i 0) (Operand.Reg Reg.Ecx)
                then
                  Rio.Instr.set_insn i
                    (Insn.mk_add (Operand.Reg Reg.Ecx) (Operand.Imm 2))));
    }
  in
  let out, _, _ = run_with ~client (loop_prog 10) in
  (* sum of 0,2,4,6,8 = 20 *)
  check_ilist "transformed result" [ 20 ] out

let test_clean_call_counts_executions () =
  let count = ref 0 in
  let client =
    {
      Rio.Types.null_client with
      name = "exec-counter";
      basic_block =
        Some
          (fun ctx ~tag:_ il ->
            let call = Rio.Api.clean_call ctx.Rio.Types.rt (fun _ -> incr count) in
            match Rio.Instrlist.first il with
            | Some first -> Rio.Instrlist.insert_before il first call
            | None -> Rio.Instrlist.append il call);
    }
  in
  let out, _, _ = run_with ~client (loop_prog 50) in
  check_ilist "result unperturbed" [ 1225 ] out;
  (* loop body executes 50 times (+ entry/exit blocks) *)
  checkb "counted executions" true (!count >= 50)

let test_transparent_output () =
  let client =
    {
      Rio.Types.null_client with
      name = "printer";
      exit_hook = (fun rt -> Rio.Api.printf rt "bye %d" 7);
    }
  in
  let out, _, rt = run_with ~client (loop_prog 20) in
  check_ilist "app output untouched" [ 190 ] out;
  Alcotest.(check string) "client output separate" "bye 7" (Rio.Api.client_output rt)

(* The paper's §3.2 storage and spill interface, used the way a client
   uses it: a global field and runtime-region counter maintained by the
   bb hook, a per-thread field, and emitted code that borrows [eax]
   through a spill slot to count block executions in the TLS field.
   [lea] adds without touching eflags, so the inserted code is
   transparent; it is built with [raw_insn], the opcode-plus-operands
   bypass. *)
exception Blocks_built of int ref

let test_spill_and_tls_storage () =
  let counter = ref 0 in
  let tls_count = ref (-1) in
  let spill_is_save_dst = ref false in
  let client =
    {
      Rio.Types.null_client with
      name = "storage";
      init =
        (fun rt ->
          Rio.Api.set_global_field rt (Blocks_built (ref 0));
          counter := Rio.Api.alloc_global rt ~bytes:4;
          Rio.Api.write_global rt !counter 0);
      thread_init =
        (fun ctx ->
          Rio.Api.set_thread_field ctx (Blocks_built (ref 0));
          Rio.Api.write_tls_field ctx 0);
      basic_block =
        Some
          (fun ctx ~tag:_ il ->
            let rt = ctx.Rio.Types.rt in
            (match Rio.Api.get_global_field rt with
            | Some (Blocks_built n) -> incr n
            | _ -> Alcotest.fail "global field lost");
            Rio.Api.write_global rt !counter (Rio.Api.read_global rt !counter + 1);
            let field = Rio.Api.tls_field_opnd ctx in
            let bump =
              Rio.Create.raw_insn Opcode.Lea
                ~srcs:[| Operand.mem_base ~disp:1 Reg.Eax |]
                ~dsts:[| Operand.Reg Reg.Eax |]
            in
            List.iter (Rio.Instrlist.prepend il)
              (List.rev
                 [
                   Rio.Api.save_reg ctx Reg.Eax 0;
                   Rio.Create.mov (Operand.Reg Reg.Eax) field;
                   bump;
                   Rio.Create.mov field (Operand.Reg Reg.Eax);
                   Rio.Api.restore_reg ctx Reg.Eax 0;
                 ]));
      thread_exit =
        (fun ctx ->
          tls_count := Rio.Api.read_tls_field ctx;
          spill_is_save_dst :=
            Rio.Instr.get_dst (Rio.Api.save_reg ctx Reg.Eax 0) 0
            = Rio.Api.spill_slot_opnd ctx 0;
          match Rio.Api.get_thread_field ctx with
          | Some (Blocks_built _) -> ()
          | _ -> Alcotest.fail "thread field lost");
    }
  in
  let prog = loop_prog 500 in
  let out, _, rt = run_with ~client prog in
  check_ilist "output transparent" (native_out prog) out;
  checkb "loop body counted" true (!tls_count >= 500);
  checkb "save_reg writes the spill slot" true !spill_is_save_dst;
  match Rio.Api.get_global_field rt with
  | Some (Blocks_built n) ->
      checki "runtime-region counter = blocks built" !n
        (Rio.Api.read_global rt !counter)
  | _ -> Alcotest.fail "global field lost"

(* ------------------------------------------------------------------ *)
(* Custom exit stubs                                                  *)
(* ------------------------------------------------------------------ *)

let test_custom_stub_executes_on_exit () =
  (* attach a stub that bumps a TLS-visible counter; verify it runs
     only when the exit is taken *)
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main"; mov eax (i 0); mov ecx (i 0);
          label "loop"; add eax ecx; inc ecx; cmp ecx (i 30); j l "loop";
          out eax; hlt;
        ]
      ()
  in
  let stub_runs = ref 0 in
  let client =
    {
      Rio.Types.null_client with
      name = "stubber";
      basic_block =
        Some
          (fun ctx ~tag:_ il ->
            (* attach to every conditional exit CTI *)
            Rio.Instrlist.iter il (fun i ->
                if
                  (not (Rio.Instr.is_bundle i))
                  &&
                  match Rio.Instr.get_opcode i with
                  | Opcode.Jcc _ -> true
                  | _ -> false
                then begin
                  let sil = Rio.Instrlist.create () in
                  Rio.Instrlist.append sil
                    (Rio.Api.clean_call ctx.Rio.Types.rt (fun _ -> incr stub_runs));
                  Rio.Api.set_custom_stub i sil
                end));
    }
  in
  let opts = { Rio.Options.default with enable_traces = false } in
  let out, _, _ = run_with ~opts ~client prog in
  check_ilist "result" [ 435 ] out;
  (* the loop branch exit is taken through its stub until linked; at
     least the first traversal runs the stub *)
  checkb "stub ran" true (!stub_runs >= 1)

let test_custom_stub_always_through () =
  (* with ~always:true the stub executes on every exit traversal even
     once linked *)
  let prog = loop_prog 40 in
  let stub_runs = ref 0 in
  let client =
    {
      Rio.Types.null_client with
      name = "always-stub";
      basic_block =
        Some
          (fun ctx ~tag:_ il ->
            Rio.Instrlist.iter il (fun i ->
                if
                  (not (Rio.Instr.is_bundle i))
                  &&
                  match Rio.Instr.get_opcode i with
                  | Opcode.Jcc _ -> true
                  | _ -> false
                then begin
                  let sil = Rio.Instrlist.create () in
                  Rio.Instrlist.append sil
                    (Rio.Api.clean_call ctx.Rio.Types.rt (fun _ -> incr stub_runs));
                  Rio.Api.set_custom_stub ~always:true i sil
                end));
    }
  in
  let opts = { Rio.Options.default with enable_traces = false } in
  let out, _, _ = run_with ~opts ~client prog in
  check_ilist "result" [ 780 ] out;
  (* the backward branch is taken 39 times, every time via the stub *)
  checkb "stub ran every traversal" true (!stub_runs >= 39)

(* ------------------------------------------------------------------ *)
(* Adaptive API: decode/replace fragment                              *)
(* ------------------------------------------------------------------ *)

let test_decode_fragment_roundtrip () =
  (* decode an emitted bb and re-install it unchanged: behaviour and
     output must not change *)
  let replaced = ref 0 in
  let client =
    {
      Rio.Types.null_client with
      name = "redecoder";
      basic_block =
        Some
          (fun ctx ~tag il ->
            ignore il;
            (* after this block is emitted, re-decode and replace it on
               first execution via a clean call *)
            let call =
              Rio.Api.clean_call ctx.Rio.Types.rt (fun cctx ->
                  if !replaced < 3 then
                    match Rio.Api.decode_fragment cctx tag with
                    | Some dil ->
                        if Rio.Api.replace_fragment cctx tag dil then incr replaced
                    | None -> ())
            in
            match Rio.Instrlist.first il with
            | Some first -> Rio.Instrlist.insert_before il first call
            | None -> Rio.Instrlist.append il call);
    }
  in
  let out, o, _ = run_with ~client (loop_prog 60) in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "output stable across replaces" [ 1770 ] out;
  checkb "replacements happened" true (!replaced >= 1)

let test_replace_fragment_transform () =
  (* replace a hot trace with a version that adds extra (semantically
     neutral) instructions; execution must continue correctly *)
  let did = ref false in
  let client =
    {
      Rio.Types.null_client with
      name = "replacer";
      trace_hook =
        Some
          (fun ctx ~tag il ->
            ignore il;
            if not !did then begin
              did := true;
              let call =
                Rio.Api.clean_call ctx.Rio.Types.rt (fun cctx ->
                    match Rio.Api.decode_fragment cctx tag with
                    | Some dil ->
                        (* insert a harmless register shuffle at the top *)
                        let pad1 = Rio.Create.push (Operand.Reg Reg.Ebx) in
                        let pad2 = Rio.Create.pop (Operand.Reg Reg.Ebx) in
                        (match Rio.Instrlist.first dil with
                         | Some f ->
                             Rio.Instrlist.insert_before dil f pad2;
                             Rio.Instrlist.insert_before dil pad2 pad1
                         | None -> ());
                        ignore (Rio.Api.replace_fragment cctx tag dil)
                    | None -> ())
              in
              match Rio.Instrlist.first il with
              | Some f -> Rio.Instrlist.insert_before il f call
              | None -> ()
            end);
    }
  in
  let out, o, rt = run_with ~client (loop_prog 2000) in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "output stable" [ 1999000 ] out;
  checkb "a fragment was replaced" true
    ((Rio.stats rt).Rio.Stats.fragments_replaced >= 1)

(* ------------------------------------------------------------------ *)
(* Custom traces                                                      *)
(* ------------------------------------------------------------------ *)

let test_mark_trace_head () =
  (* marking a cold tag as a head forces trace creation there *)
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main"; mov eax (i 0); mov ecx (i 0);
          label "loop";
          call "helper";
          inc ecx; cmp ecx (i 400); j l "loop";
          out eax; hlt;
          label "helper"; add eax (i 2); ret;
        ]
      ()
  in
  let marked = ref false in
  let client =
    {
      Rio.Types.null_client with
      name = "marker";
      basic_block =
        Some
          (fun ctx ~tag:_ il ->
            match Rio.Instrlist.last il with
            | Some last
              when (not (Rio.Instr.is_bundle last))
                   && Rio.Instr.get_opcode last = Opcode.Call ->
                let t = Operand.get_target (Rio.Instr.get_src last 0) in
                Rio.Api.mark_trace_head ctx t;
                marked := true
            | _ -> ());
    }
  in
  let out, _, rt = run_with ~client prog in
  check_ilist "result" [ 800 ] out;
  checkb "marked" true !marked;
  checkb "trace for helper exists" true ((Rio.stats rt).Rio.Stats.traces_built >= 1)

let test_end_trace_directive () =
  (* a client that forcibly ends every trace after one block produces
     single-block traces; behaviour is unchanged *)
  let client =
    {
      Rio.Types.null_client with
      name = "cutter";
      end_trace = Some (fun _ ~trace_tag:_ ~next_tag:_ -> Rio.Types.End_trace);
    }
  in
  let out, _, _ = run_with ~client (loop_prog 300) in
  check_ilist "result" [ 44850 ] out

(* ------------------------------------------------------------------ *)
(* Threads and signals under RIO                                      *)
(* ------------------------------------------------------------------ *)

let test_rio_two_threads () =
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main";
          label "spin";
          ld eax "flag";
          test eax eax;
          j z "spin";
          out (i 11);
          hlt;
          label "worker";
          mov ecx (i 0);
          label "wloop";
          inc ecx;
          cmp ecx (i 1000);
          j l "wloop";
          mov eax (i 1);
          st "flag" eax;
          hlt;
        ]
      ~data:[ label "flag"; word32 [ 0 ] ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Asm.Image.spawn m image "worker");
  let opts = { Rio.Options.default with quantum = 2000 } in
  let rt = Rio.create ~opts m in
  let o = Rio.run rt in
  checkb "finished" true (o.Rio.reason = Rio.All_exited);
  check_ilist "handoff result" [ 11 ] (Vm.Machine.output m)

let test_thread_private_caches () =
  (* both threads run the same code; each builds its own blocks *)
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main";
          mov ecx (i 0);
          label "loop"; inc ecx; cmp ecx (i 50); j l "loop";
          out ecx; hlt;
        ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Asm.Image.spawn m image "main");
  let rt = Rio.create m in
  let o = Rio.run rt in
  checkb "finished" true (o.Rio.reason = Rio.All_exited);
  check_ilist "both produced output" [ 50; 50 ] (Vm.Machine.output m);
  (* same tags built twice: once per thread *)
  checkb "thread-private blocks" true ((Rio.stats rt).Rio.Stats.blocks_built >= 4)

let test_signal_under_rio () =
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main";
          mov ecx (i 0);
          label "loop";
          inc ecx;
          cmp ecx (i 60000);
          j l "loop";
          out ecx;
          hlt;
          label "handler";
          out (i 333);
          ret;
        ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  Vm.Machine.schedule_signal m ~at:2000 ~tid:0
    ~handler:(Asm.Image.label image "handler");
  let rt = Rio.create m in
  let o = Rio.run rt in
  checkb "finished" true (o.Rio.reason = Rio.All_exited);
  check_ilist "handler intercepted and ran" [ 333; 60000 ] (Vm.Machine.output m);
  checkb "stat counted" true ((Rio.stats rt).Rio.Stats.signals_delivered = 1)

(* ------------------------------------------------------------------ *)
(* Self-modifying code                                                *)
(* ------------------------------------------------------------------ *)

(* A program that patches the immediate of an instruction in its own
   hot loop: iterations before the patch add 11, after it add 22.  The
   runtime must flush the stale basic blocks and traces (the loop is
   hot enough to have a trace by patch time) and keep the output
   identical to native execution.  The patch lands in iteration [at];
   [pad] extra two-way branches in the loop body (which leave [edi]
   alone) give it [pad] more blocks. *)
let smc_loop ?(at = 150) ~pad () =
  let padding =
    List.concat_map
      (fun k ->
        let over = Printf.sprintf "pad%d" k in
        [ cmp ecx (i (k * 7 mod 200)); j z over; inc esi; label over ])
      (List.init pad Fun.id)
  in
  program ~name:"smc"
    ~text:
      ([
        label "main";
        mov ecx (i 0);
        mov edi (i 0);
        label "loop";
        label "patchme";
        mov eax (i 11);          (* imm bytes live at patchme+1 *)
        add edi eax;
       ]
      @ padding
      @ [
        inc ecx;
        cmp ecx (i at);
        j nz "skip";
        (* patch: rewrite the imm32 of the mov above to 22 *)
        li ebx "patchme";
        mov (mb ebx ~disp:1) (i 22);
        label "skip";
        cmp ecx (i 200);
        j l "loop";
        out edi;
        hlt;
      ])
    ()

let smc_prog = smc_loop ~pad:0 ()

let test_smc_native () =
  (* the simulated hardware itself must handle the patch (decoded-
     instruction cache invalidation) *)
  check_ilist "native smc result" [ (150 * 11) + (50 * 22) ] (native_out smc_prog)

let test_smc_under_rio () =
  let out, o, rt = run_with smc_prog in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "rio smc result" (native_out smc_prog) out;
  checkb "stale fragments were flushed" true
    ((Rio.stats rt).Rio.Stats.fragments_deleted >= 1);
  checkb "a trace had been built before the patch" true
    ((Rio.stats rt).Rio.Stats.traces_built >= 1)

let test_smc_with_clients () =
  let out, o, _ = run_with ~client:(Clients.Compose.all_four ()) smc_prog in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "rio smc result under all-four" (native_out smc_prog) out

let smc_flushes rt =
  List.filter_map
    (fun e -> Scanf.sscanf_opt e "smc flush: %d fragments%!" Fun.id)
    (Rio.flow_log rt)

(* -O3 in a bounded FIFO cache with compaction; at 8192 bytes this is
   the benchmark's pressure configuration *)
let pressure_opts ~capacity =
  { Rio.Options.default with
    Rio.Options.opt_level = 3;
    cache_capacity = Some capacity;
    flush_policy = Rio.Options.Flush_fifo;
    cache_compaction = true }

(* short blocks lower the FIFO capacity floor to a few hundred bytes *)
let tiny_cache ~capacity =
  { (pressure_opts ~capacity) with Rio.Options.max_bb_insns = 8 }

(* Genuine self-modification while the cache is under pressure: -O3
   traces, a FIFO cache far smaller than the loop's code, compaction
   on.  The patch must still be caught and flushed.  Regression: a
   trace re-optimization that found no room evicted the trace it was
   replacing, and the dispatcher then entered the reclaimed body
   (an "unknown trap" fault). *)
let test_smc_under_pressure () =
  let prog = smc_loop ~pad:24 () in
  let out, o, rt =
    run_with ~opts:(tiny_cache ~capacity:512) ~flow_log:true prog
  in
  let st = Rio.stats rt in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "rio smc result under pressure" (native_out prog) out;
  checkb "the cache was under pressure" true
    (st.Rio.Stats.evictions >= 1 && st.Rio.Stats.compactions >= 1);
  checkb "stale fragments were flushed" true
    (st.Rio.Stats.fragments_deleted >= 1);
  checkb "the patch raised an smc flush" true (smc_flushes rt <> [])

(* Regression: a trace took its source ranges from its constituent
   blocks' fragments at emission time, so a block evicted while the
   trace was being generated left the trace without that range — and
   the patch never flushed the stale trace. *)
let test_smc_trace_outlives_blocks () =
  let prog = smc_loop ~pad:24 () in
  let out, o, rt =
    run_with ~opts:(tiny_cache ~capacity:1024) ~flow_log:true prog
  in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "rio smc result" (native_out prog) out;
  checkb "the patch flushed a live fragment" true
    (List.exists (fun n -> n >= 1) (smc_flushes rt))

(* Regression: a patch landing while the loop's trace was being
   generated flushed the patched block, but the trace had already
   stitched the block's old instructions and was emitted stale.  Every
   patch iteration, under an unbounded and a pressured cache. *)
let test_smc_during_trace_generation () =
  List.iter
    (fun (name, opts, pad) ->
      for at = 1 to 199 do
        let prog = smc_loop ~at ~pad () in
        let out, o, _ = run_with ~opts prog in
        checkb (Printf.sprintf "%s, patch at %d: completed" name at) true
          (o.Rio.reason = Rio.All_exited);
        check_ilist (Printf.sprintf "%s, patch at %d" name at)
          (native_out prog) out
      done)
    [ ("defaults", Rio.Options.default, 0);
      ("-O3", { Rio.Options.default with Rio.Options.opt_level = 3 }, 0);
      ("-O3 in 512 bytes", tiny_cache ~capacity:512, 8) ]

(* The runtime's own cache writes (emission, link patches, compaction
   moves) are not self-modification: gcc under cache pressure at -O3
   raises no SMC trap at all. *)
let test_no_phantom_smc () =
  let w = Option.get (Workloads.Suite.by_name "gcc") in
  let out, o, rt =
    run_with ~opts:(pressure_opts ~capacity:8192)
      ~input:w.Workloads.Workload.input ~flow_log:true
      w.Workloads.Workload.program
  in
  let native = Workloads.Workload.run_native w in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "gcc under pressure matches native" native.Workloads.Workload.output
    out;
  checkb "the cache was under pressure" true
    ((Rio.stats rt).Rio.Stats.compactions >= 1);
  checki "no smc flush" 0 (List.length (smc_flushes rt))

(* ------------------------------------------------------------------ *)
(* API edge cases                                                     *)
(* ------------------------------------------------------------------ *)

let test_trace_threshold_exact () =
  let opts = { Rio.Options.default with trace_threshold = 7 } in
  let _, _, rt = run_with ~opts (loop_prog 100) in
  checkb "a trace exists" true ((Rio.stats rt).Rio.Stats.traces_built >= 1);
  let opts = { Rio.Options.default with trace_threshold = 101 } in
  let _, _, rt = run_with ~opts (loop_prog 100) in
  checki "threshold above iteration count: no trace" 0
    (Rio.stats rt).Rio.Stats.traces_built

let test_ibl_disabled_counts () =
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main"; mov ecx (i 0);
          label "loop"; call "f"; inc ecx; cmp ecx (i 100); j l "loop";
          out ecx; hlt;
          label "f"; ret;
        ]
      ()
  in
  let opts =
    { Rio.Options.default with link_indirect = false; enable_traces = false }
  in
  let _, _, rt = run_with ~opts prog in
  checki "no in-cache lookups when disabled" 0 (Rio.stats rt).Rio.Stats.ibl_lookups;
  let opts = { Rio.Options.default with enable_traces = false } in
  let _, _, rt = run_with ~opts prog in
  checkb "lookups happen when enabled" true
    ((Rio.stats rt).Rio.Stats.ibl_lookups >= 99)

let test_replace_missing_tag () =
  let result = ref None in
  let client =
    {
      Rio.Types.null_client with
      name = "probe";
      basic_block =
        Some
          (fun ctx ~tag:_ il ->
            if !result = None then
              result :=
                Some
                  (Rio.Api.replace_fragment ctx 0xDEAD (Rio.Instrlist.create ())
                   = false
                  && Rio.Api.decode_fragment ctx 0xDEAD = None);
            ignore il);
    }
  in
  ignore (run_with ~client (loop_prog 5));
  checkb "missing tag handled gracefully" true (Option.value !result ~default:false)

let test_nested_stub_exits_rejected () =
  (* an exit inside a stub inside a stub is one level too deep *)
  let client =
    {
      Rio.Types.null_client with
      name = "nester";
      basic_block =
        Some
          (fun _ ~tag:_ il ->
            Rio.Instrlist.iter il (fun i ->
                if
                  (not (Rio.Instr.is_bundle i))
                  &&
                  match Rio.Instr.get_opcode i with
                  | Opcode.Jcc _ -> true
                  | _ -> false
                then begin
                  let outer = Rio.Instrlist.create () in
                  let deep = Rio.Instrlist.create () in
                  Rio.Instrlist.append deep (Rio.Create.jmp 0x4000);
                  let too_deep = Rio.Create.jcc Cond.NZ 0x5000 in
                  Rio.Api.set_custom_stub too_deep deep;
                  Rio.Instrlist.append outer too_deep;
                  Rio.Api.set_custom_stub i outer
                end));
    }
  in
  let _, o, _ = run_with ~client (loop_prog 10) in
  checkb "rejected as an error" true
    (match o.Rio.reason with Rio.App_fault _ -> true | _ -> false)

let test_client_abort_from_trace_hook () =
  let client =
    {
      Rio.Types.null_client with
      name = "aborter";
      trace_hook =
        Some (fun _ ~tag:_ _ -> raise (Rio.Types.Client_abort "no traces please"));
    }
  in
  let _, o, _ = run_with ~client (loop_prog 500) in
  checkb "abort surfaces as fault" true
    (match o.Rio.reason with
     | Rio.App_fault m ->
         let has needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         has "no traces please" m
     | _ -> false)

let test_emulate_builds_nothing () =
  let prog = loop_prog 200 in
  let expected = native_out prog in
  let opts =
    { (List.assoc "emulation" Rio.Options.table1_configs) with
      Rio.Options.max_cycles = max_int / 2 }
  in
  let out, o, rt = run_with ~opts prog in
  checkb "emulation completes" true (o.Rio.reason = Rio.All_exited);
  check_ilist "emulation output" expected out;
  checki "emulation builds no fragments" 0 (Rio.stats rt).Rio.Stats.blocks_built

(* ------------------------------------------------------------------ *)
(* Bounded cache / capacity flushes                                   *)
(* ------------------------------------------------------------------ *)

let test_cache_capacity_flush () =
  (* a tiny cache forces flush-the-world events; behaviour must be
     unchanged and the cache must actually be reclaimed *)
  let prog =
    program ~name:"p"
      ~text:
        ([ label "main"; mov eax (i 0); mov edx (i 0); label "outer" ]
        @ List.concat
            (List.init 24 (fun k ->
                 [
                   label (Printf.sprintf "b%d" k);
                   add eax (i (k + 1));
                   xor eax (i (k * 3));
                   call (Printf.sprintf "f%d" (k mod 6));
                 ]))
        @ [
            inc edx; cmp edx (i 30); j l "outer";
            out eax; hlt;
          ]
        @ List.concat
            (List.init 6 (fun k ->
                 [ label (Printf.sprintf "f%d" k); add eax (i k); ret ])))
      ()
  in
  let expected = native_out prog in
  let opts =
    { Rio.Options.default with
      cache_capacity = Some 256;
      (* this test exercises the legacy flush-the-world path; 256 bytes
         is far below the FIFO policy's validated minimum *)
      flush_policy = Rio.Options.Flush_full;
    }
  in
  let out, o, rt = run_with ~opts prog in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "output equal under tiny cache" expected out;
  checkb "flushes happened" true ((Rio.stats rt).Rio.Stats.cache_flushes >= 1);
  (* cursor stays bounded: capacity plus one over-commit fragment worth *)
  checkb "cache stayed bounded" true
    (rt.Rio.Types.cache_cursor - Rio.Types.cache_base < 256 + 4096)

let test_cache_capacity_two_threads () =
  let prog =
    program ~name:"p"
      ~text:
        [
          label "main";
          mov ecx (i 0);
          label "loop"; inc ecx; call "h"; cmp ecx (i 400); j l "loop";
          out ecx; hlt;
          label "h"; ret;
        ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Asm.Image.spawn m image "main");
  let opts =
    { Rio.Options.default with
      cache_capacity = Some 128;
      flush_policy = Rio.Options.Flush_full;
      quantum = 700;
    }
  in
  let rt = Rio.create ~opts m in
  let o = Rio.run rt in
  checkb "completed" true (o.Rio.reason = Rio.All_exited);
  check_ilist "both threads correct" [ 400; 400 ] (Vm.Machine.output m);
  (* with two threads, flushes only happen when both reach a safe
     point simultaneously; otherwise the soft limit carries the run.
     Either way the capacity pressure must have been noticed. *)
  checkb "capacity pressure handled" true
    ((Rio.stats rt).Rio.Stats.cache_flushes >= 1 || rt.Rio.Types.flush_pending)

(* ------------------------------------------------------------------ *)
(* Fault transparency                                                 *)
(* ------------------------------------------------------------------ *)

let test_fault_surfaces () =
  let prog =
    program ~name:"p"
      ~text:[ label "main"; mov eax (i (-8)); mov ebx (mb eax); hlt ]
      ()
  in
  let _, o, _ = run_with prog in
  checkb "fault reported" true
    (match o.Rio.reason with Rio.App_fault _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rio"
    [
      ( "instr levels",
        [
          Alcotest.test_case "bundle split" `Quick test_levels_bundle;
          Alcotest.test_case "level transitions" `Quick test_levels_transitions;
          Alcotest.test_case "raw copy encode" `Quick test_level_encode_copies_raw;
          Alcotest.test_case "cti re-encode" `Quick test_cti_reencoded_at_new_pc;
          Alcotest.test_case "note field" `Quick test_note_field;
        ] );
      ( "instrlist",
        [
          Alcotest.test_case "list ops" `Quick test_instrlist_ops;
          QCheck_alcotest.to_alcotest prop_instrlist_model;
        ] );
      ( "flags analysis",
        [
          Alcotest.test_case "dead after write" `Quick test_flags_dead;
          Alcotest.test_case "live via jcc" `Quick test_flags_live_via_jcc;
          Alcotest.test_case "live at exit" `Quick test_flags_live_at_exit;
          Alcotest.test_case "inc partial write" `Quick test_flags_inc_partial;
          Alcotest.test_case "written-before-read mask" `Quick test_written_before_read;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "runs a program" `Quick test_rio_runs_program;
          Alcotest.test_case "hot loop gets a trace" `Quick test_trace_created_for_hot_loop;
          Alcotest.test_case "cold code gets no trace" `Quick test_no_trace_below_threshold;
          Alcotest.test_case "links cut context switches" `Quick test_links_reduce_context_switches;
          Alcotest.test_case "table-1 configs equivalent" `Quick test_table1_config_equivalence;
          Alcotest.test_case "max-size block splits" `Quick test_max_size_block;
        ] );
      ( "client interface",
        [
          Alcotest.test_case "hook coverage" `Quick test_hook_coverage;
          Alcotest.test_case "bb hook sees code" `Quick test_bb_hook_sees_app_code;
          Alcotest.test_case "transform applies" `Quick test_client_transform_applies;
          Alcotest.test_case "clean calls" `Quick test_clean_call_counts_executions;
          Alcotest.test_case "transparent output" `Quick test_transparent_output;
          Alcotest.test_case "spill and tls storage" `Quick test_spill_and_tls_storage;
        ] );
      ( "custom stubs",
        [
          Alcotest.test_case "stub executes on exit" `Quick test_custom_stub_executes_on_exit;
          Alcotest.test_case "always-through stub" `Quick test_custom_stub_always_through;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "decode roundtrip" `Quick test_decode_fragment_roundtrip;
          Alcotest.test_case "replace transform" `Quick test_replace_fragment_transform;
        ] );
      ( "custom traces",
        [
          Alcotest.test_case "mark trace head" `Quick test_mark_trace_head;
          Alcotest.test_case "end-trace directive" `Quick test_end_trace_directive;
        ] );
      ( "api edge cases",
        [
          Alcotest.test_case "trace threshold" `Quick test_trace_threshold_exact;
          Alcotest.test_case "ibl toggling" `Quick test_ibl_disabled_counts;
          Alcotest.test_case "replace missing tag" `Quick test_replace_missing_tag;
          Alcotest.test_case "nested stub exits rejected" `Quick test_nested_stub_exits_rejected;
          Alcotest.test_case "client abort from trace hook" `Quick test_client_abort_from_trace_hook;
          Alcotest.test_case "emulation builds nothing" `Quick test_emulate_builds_nothing;
        ] );
      ( "bounded cache",
        [
          Alcotest.test_case "capacity flush" `Quick test_cache_capacity_flush;
          Alcotest.test_case "two-thread capacity" `Quick test_cache_capacity_two_threads;
        ] );
      ( "self-modifying code",
        [
          Alcotest.test_case "native smc" `Quick test_smc_native;
          Alcotest.test_case "smc under rio" `Quick test_smc_under_rio;
          Alcotest.test_case "smc with clients" `Quick test_smc_with_clients;
          Alcotest.test_case "smc under cache pressure" `Quick test_smc_under_pressure;
          Alcotest.test_case "smc trace outlives its blocks" `Quick test_smc_trace_outlives_blocks;
          Alcotest.test_case "smc during trace generation" `Quick test_smc_during_trace_generation;
          Alcotest.test_case "no phantom smc" `Quick test_no_phantom_smc;
        ] );
      ( "threads+signals",
        [
          Alcotest.test_case "two threads" `Quick test_rio_two_threads;
          Alcotest.test_case "thread-private caches" `Quick test_thread_private_caches;
          Alcotest.test_case "signal interception" `Quick test_signal_under_rio;
        ] );
      ("faults", [ Alcotest.test_case "fault surfaces" `Quick test_fault_surfaces ]);
    ]

(** Tests for the self-healing machinery (S34): the cache auditor's
    corruption detection, the client-hook exception barrier, the
    graceful-degradation ladder, and end-to-end observational
    equivalence under deterministic fault injection. *)

open Workloads

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

let wl name = Option.get (Suite.by_name name)

(* The workloads used by the end-to-end runs: a spread of int and fp
   programs that all finish quickly. *)
let quick_suite = [ "gzip"; "perlbmk"; "parser"; "crafty"; "twolf"; "applu" ]

(* ------------------------------------------------------------------ *)
(* Checksum: any single-byte corruption is detected                   *)
(* ------------------------------------------------------------------ *)

(* Build a populated runtime by running a workload to completion; its
   live fragments (bbs, traces, stubs, links) are the corpus the
   corruption property ranges over. *)
let fragment_corpus =
  lazy
    (let _, rt = Workload.run_rio ~client:(Clients.Compose.all_four ()) (wl "gzip") in
     let frags = Rio.Audit.live_fragments rt in
     assert (frags <> []);
     (rt, Array.of_list frags))

let test_corruption_detected =
  QCheck.Test.make ~count:500 ~name:"any single-byte corruption is detected"
    QCheck.(triple small_nat small_nat (int_range 1 255))
    (fun (fidx, off, mask) ->
      let rt, frags = Lazy.force fragment_corpus in
      let f = frags.(fidx mod Array.length frags) in
      let addr =
        f.Rio.Types.entry + (off mod (f.Rio.Types.total_end - f.Rio.Types.entry))
      in
      let mem = Vm.Machine.mem (Rio.Engine.machine rt) in
      let old = Vm.Memory.read_u8 mem addr in
      Vm.Memory.write_u8 mem addr (old lxor mask);
      let detected = Rio.Audit.For_testing.check_fragment rt f <> None in
      Vm.Memory.write_u8 mem addr old;
      let restored = Rio.Audit.For_testing.check_fragment rt f = None in
      detected && restored)

(* ------------------------------------------------------------------ *)
(* Relocation: moved fragments stay audit-clean                       *)
(* ------------------------------------------------------------------ *)

(* Relocating a fragment re-patches its pc-relative sites and must
   refresh the audit checksum to match the new placement: the auditor
   reads clean right after every move, and a corruption introduced
   into the moved body is still caught (the checksum tracked the move
   rather than being skipped). *)
let test_move_then_audit () =
  let _, rt = Workload.run_rio (wl "gzip") in
  let frags = Rio.Audit.live_fragments rt in
  checkb "corpus non-empty" true (frags <> []);
  List.iter
    (fun f ->
      checkb "clean before move" true (Rio.Audit.For_testing.check_fragment rt f = None))
    frags;
  let mem = Vm.Machine.mem (Rio.Engine.machine rt) in
  List.iter
    (fun f ->
      let len = f.Rio.Types.total_end - f.Rio.Types.entry in
      let dst = rt.Rio.Types.cache_cursor in
      assert (dst + len <= rt.Rio.Types.cache_end);
      rt.Rio.Types.cache_cursor <- dst + len;
      Rio.Emit.For_testing.move_fragment rt f ~dst;
      checki "fragment entry moved" dst f.Rio.Types.entry;
      checkb "clean after move" true (Rio.Audit.For_testing.check_fragment rt f = None);
      (* the refreshed checksum covers the new placement: flipping a
         byte of the moved body must still be detected *)
      let addr = f.Rio.Types.entry + (len / 2) in
      let old = Vm.Memory.read_u8 mem addr in
      Vm.Memory.write_u8 mem addr (old lxor 0x5a);
      checkb "corruption after move detected" true
        (Rio.Audit.For_testing.check_fragment rt f <> None);
      Vm.Memory.write_u8 mem addr old;
      checkb "clean after restore" true
        (Rio.Audit.For_testing.check_fragment rt f = None))
    frags;
  checki "every move counted" (List.length frags)
    (Rio.stats rt).Rio.Stats.fragments_moved

(* A link flip may only pick a site patch_branch will accept: a
   long-form branch.  Turn every linked exit's patch site into a rel8
   branch (decodable, a direct branch, but not patchable in place): the
   injector must find no victim rather than raise. *)
let test_rel8_site_not_patchable () =
  let _, rt = Workload.run_rio (wl "gzip") in
  let open Rio.Types in
  let site e = if e.always_through_stub then e.stub_jmp_pc else e.branch_pc in
  let linked =
    List.concat_map
      (fun f -> List.filter (fun e -> e.linked <> None) (Array.to_list f.exits))
      (Rio.Audit.live_fragments rt)
  in
  checkb "some exits are linked" true (linked <> []);
  checkb "long sites are patchable" true
    (List.for_all (Rio.Faultinject.For_testing.exit_patchable rt) linked);
  let mem = Vm.Machine.mem (Rio.Engine.machine rt) in
  (* 0x80 is jmp rel8: over a jmp rel32 or a jcc rel32 opcode byte *)
  List.iter (fun e -> Vm.Memory.write_u8 mem (site e) 0x80) linked;
  List.iter
    (fun e ->
      checkb "rel8 site is not patchable" false (Rio.Faultinject.For_testing.exit_patchable rt e);
      match Rio.Emit.patch_branch rt ~pc:(site e) ~target:0x1000 with
      | () -> Alcotest.fail "patch_branch accepted a rel8 site"
      | exception Rio_error _ -> ())
    linked;
  checkb "link flip finds no victim" false (Rio.Faultinject.For_testing.inject_link_flip rt)

(* ------------------------------------------------------------------ *)
(* Hook barrier: a raising client never alters program output         *)
(* ------------------------------------------------------------------ *)

(* The nastiest client we can write: it guts every basic block (and
   mutates the IL as destructively as Instrlist allows), then raises.
   Under the barrier none of that may reach the cache. *)
let wrecking_client () =
  {
    Rio.Types.null_client with
    name = "wrecker";
    basic_block =
      Some
        (fun _ ~tag:_ il ->
          List.iter (Rio.Instrlist.remove il) (Rio.Instrlist.to_list il);
          failwith "wrecker: deliberate crash");
  }

let test_raising_hook_preserves_output () =
  let w = wl "gzip" in
  let native = Workload.run_native w in
  let r, rt = Workload.run_rio ~client:(wrecking_client ()) w in
  checkb "finished" true r.ok;
  check_ilist "output identical to native" native.output r.output;
  let s = Rio.stats rt in
  checki "failures up to the quarantine limit"
    Rio.Options.default.Rio.Options.client_fail_limit s.Rio.Stats.hook_failures;
  checki "client quarantined" 1 s.Rio.Stats.clients_quarantined;
  checkb "quarantine flag set" true rt.Rio.Types.client_quarantined

let test_raising_init_and_exit_hooks () =
  let w = wl "perlbmk" in
  let native = Workload.run_native w in
  let client =
    {
      Rio.Types.null_client with
      name = "lifecycle-wrecker";
      init = (fun _ -> failwith "init crash");
      thread_init = (fun _ -> failwith "thread_init crash");
      exit_hook = (fun _ -> failwith "exit crash");
    }
  in
  let r, rt = Workload.run_rio ~client w in
  checkb "finished" true r.ok;
  check_ilist "output identical to native" native.output r.output;
  checkb "failures recorded" true ((Rio.stats rt).Rio.Stats.hook_failures > 0)

let test_client_abort_still_escapes () =
  (* Client_abort is the one deliberate escape hatch; the barrier must
     not swallow it. *)
  let client =
    {
      Rio.Types.null_client with
      name = "aborter";
      basic_block = Some (fun _ ~tag:_ _ -> raise (Rio.Types.Client_abort "policy"));
    }
  in
  let r, _ = Workload.run_rio ~client (wl "gzip") in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  checkb "run stopped" true (not r.ok);
  checkb "abort reported" true (contains r.detail "client")

(* ------------------------------------------------------------------ *)
(* Recovery ladder                                                    *)
(* ------------------------------------------------------------------ *)

let test_ladder_escalates () =
  let _, rt = Workload.run_rio (wl "gzip") in
  let ts = List.hd rt.Rio.Types.thread_states in
  let f = List.hd (Rio.Audit.live_fragments rt) in
  let tag = f.Rio.Types.tag in
  for _ = 1 to 4 do
    Rio.Dispatch.For_testing.recover_tag rt ts ~tag ~reason:"test escalation"
  done;
  let s = Rio.stats rt in
  checki "rung 0 re-emit" 1 s.Rio.Stats.recover_reemit;
  checki "rung 1 flush fragment" 1 s.Rio.Stats.recover_flush_frag;
  checki "rung 2 flush world" 1 s.Rio.Stats.recover_flush_world;
  checki "rung 3 emulate" 1 s.Rio.Stats.recover_emulate;
  checki "four detections" 4 s.Rio.Stats.faults_detected;
  checkb "tag demoted to pure emulation" true
    (Hashtbl.mem rt.Rio.Types.emulate_only tag);
  checkb "offending fragment deleted" true f.Rio.Types.deleted

let test_forced_emulation_matches_native () =
  (* Demote the program's entry block to pure emulation before the run
     starts: the dispatcher must interpret it (and every re-entry) yet
     produce identical output. *)
  let w = wl "gzip" in
  let native = Workload.run_native w in
  let image = Asm.Assemble.assemble w.Workload.program in
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m w.Workload.input;
  ignore (Asm.Image.load m image);
  let rt = Rio.create m in
  List.iter
    (fun th -> Hashtbl.replace rt.Rio.Types.emulate_only th.Vm.Machine.pc ())
    (Vm.Machine.live_threads m);
  let o = Rio.run rt in
  checkb "finished" true (o.Rio.reason = Rio.All_exited);
  check_ilist "output identical to native" native.output (Vm.Machine.output m);
  checkb "blocks were emulated" true
    ((Rio.stats rt).Rio.Stats.blocks_emulated > 0)

(* ------------------------------------------------------------------ *)
(* End-to-end fault injection                                         *)
(* ------------------------------------------------------------------ *)

let injected_opts ?(faults = Rio.Options.default_faults) seed =
  {
    Rio.Options.default with
    faults = Some { faults with Rio.Options.fi_seed = seed };
    audit_period = 1;
  }

let test_injection_preserves_output () =
  let total = ref (Rio.Stats.create ()) in
  List.iter
    (fun name ->
      let w = wl name in
      let native = Workload.run_native w in
      List.iter
        (fun seed ->
          let r, rt =
            Workload.run_rio ~opts:(injected_opts seed)
              ~client:(Clients.Compose.all_four ()) w
          in
          checkb (name ^ ": finished") true r.ok;
          check_ilist (name ^ ": output identical to native") native.output
            r.output;
          total := Rio.Stats.merge !total (Rio.stats rt))
        [ 1; 7 ])
    quick_suite;
  let total = !total in
  checkb "faults were injected" true (total.Rio.Stats.faults_injected > 0);
  checkb "faults were detected" true (total.Rio.Stats.faults_detected > 0);
  checkb "recoveries happened" true (Rio.Stats.For_testing.recoveries total > 0)

let test_injection_is_deterministic () =
  let run () =
    let r, rt =
      Workload.run_rio ~opts:(injected_opts 7)
        ~client:(Clients.Compose.all_four ()) (wl "gzip")
    in
    let s = Rio.stats rt in
    (r.output, r.cycles, s.Rio.Stats.faults_injected, s.Rio.Stats.faults_detected)
  in
  let a = run () and b = run () in
  checkb "same (seed, workload) replays identically" true (a = b)

let test_spurious_signals_dropped () =
  let faults =
    {
      Rio.Options.default_faults with
      fi_period = 10;
      fi_corrupt = false;
      fi_links = false;
      fi_hooks = false;
    }
  in
  let w = wl "gzip" in
  let native = Workload.run_native w in
  let r, rt = Workload.run_rio ~opts:(injected_opts ~faults 3) w in
  checkb "finished" true r.ok;
  check_ilist "output identical to native" native.output r.output;
  checkb "spurious signals were dropped" true
    ((Rio.stats rt).Rio.Stats.spurious_signals_dropped > 0)

let test_audit_clean_after_normal_run () =
  (* With no injection, an audited run must report zero violations. *)
  List.iter
    (fun name ->
      let r, rt =
        Workload.run_rio
          ~opts:{ Rio.Options.default with audit_period = 4 }
          (wl name)
      in
      checkb (name ^ ": finished") true r.ok;
      let s = Rio.stats rt in
      checkb (name ^ ": audits ran") true (s.Rio.Stats.audits_run > 0);
      checki (name ^ ": no violations") 0 s.Rio.Stats.faults_detected)
    [ "gzip"; "crafty" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "auditor",
        [
          QCheck_alcotest.to_alcotest test_corruption_detected;
          Alcotest.test_case "clean after normal run" `Slow
            test_audit_clean_after_normal_run;
          Alcotest.test_case "moved fragments stay audit-clean" `Slow
            test_move_then_audit;
        ] );
      ( "hook barrier",
        [
          Alcotest.test_case "raising hook preserves output" `Slow
            test_raising_hook_preserves_output;
          Alcotest.test_case "lifecycle hooks contained" `Slow
            test_raising_init_and_exit_hooks;
          Alcotest.test_case "client abort escapes" `Slow
            test_client_abort_still_escapes;
        ] );
      ( "recovery ladder",
        [
          Alcotest.test_case "escalates rung by rung" `Slow test_ladder_escalates;
          Alcotest.test_case "forced emulation matches native" `Slow
            test_forced_emulation_matches_native;
        ] );
      ( "injection",
        [
          Alcotest.test_case "output preserved under faults" `Slow
            test_injection_preserves_output;
          Alcotest.test_case "deterministic replay" `Slow
            test_injection_is_deterministic;
          Alcotest.test_case "spurious signals dropped" `Slow
            test_spurious_signals_dropped;
          Alcotest.test_case "rel8 link sites are never flipped" `Slow
            test_rel8_site_not_patchable;
        ] );
    ]

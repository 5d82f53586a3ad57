(** Structural invariants checked over live runtimes (DESIGN.md §6):
    cache/link consistency after every kind of run, and trace linearity
    as seen by clients. *)

open Workloads

let checkb = Alcotest.(check bool)

let check_consistency name rt =
  match Rio.Emit.For_testing.check_invariants rt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: cache inconsistency: %s" name e

(* ------------------------------------------------------------------ *)
(* Invariant 7: cache/link consistency                                *)
(* ------------------------------------------------------------------ *)

let test_consistency_after_runs () =
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      let _, rt = Workload.run_rio w in
      check_consistency (name ^ "/null") rt;
      let _, rt = Workload.run_rio ~client:(Clients.Compose.all_four ()) w in
      check_consistency (name ^ "/combined") rt)
    [ "crafty"; "vortex"; "eon"; "mgrid"; "gcc" ]

let test_consistency_with_capacity_flushes () =
  let w = Option.get (Suite.by_name "gcc") in
  let r, rt =
    Workload.run_rio
      ~opts:
        { Rio.Options.default with
          cache_capacity = Some 8192;
          flush_policy = Rio.Options.Flush_full;
        }
      w
  in
  checkb "ok" true r.Workload.ok;
  checkb "flushes occurred" true ((Rio.stats rt).Rio.Stats.cache_flushes >= 1);
  check_consistency "gcc/flushed" rt

let test_consistency_with_fifo_eviction () =
  (* same pressure, incremental policy: evictions instead of flushes,
     links must stay coherent over the churning free list *)
  let w = Option.get (Suite.by_name "gcc") in
  let r, rt =
    Workload.run_rio
      ~opts:{ Rio.Options.default with cache_capacity = Some 8192 } w
  in
  checkb "ok" true r.Workload.ok;
  checkb "evictions occurred" true ((Rio.stats rt).Rio.Stats.evictions >= 1);
  checkb "no full flushes" true ((Rio.stats rt).Rio.Stats.cache_flushes = 0);
  check_consistency "gcc/evicted" rt

let test_consistency_after_replacements () =
  (* ibdispatch replaces fragments mid-run: links must stay coherent *)
  let w = Option.get (Suite.by_name "eon") in
  let r, rt = Workload.run_rio ~client:(Clients.Ibdispatch.make ()) w in
  checkb "ok" true r.Workload.ok;
  checkb "replacements occurred" true
    ((Rio.stats rt).Rio.Stats.fragments_replaced >= 1);
  check_consistency "eon/replaced" rt

(* ------------------------------------------------------------------ *)
(* Invariant 8: trace linearity (client view)                         *)
(* ------------------------------------------------------------------ *)

let test_trace_linearity () =
  (* every CTI in a client-visible trace leaves the fragment: its
     target is an application address or an IND pseudo-token — never an
     internal join.  Clean calls are the only non-CTI control effect. *)
  let violations = ref [] in
  let probe =
    {
      Rio.Types.null_client with
      name = "linearity-probe";
      trace_hook =
        Some
          (fun _ ~tag il ->
            Rio.Instrlist.iter il (fun i ->
                if (not (Rio.Instr.is_bundle i)) && Rio.Instr.is_cti i then
                  match Rio.Instr.get_opcode i with
                  | Isa.Opcode.Jmp | Isa.Opcode.Jcc _ -> (
                      match Rio.Instr.get_src i 0 with
                      | Isa.Operand.Target t ->
                          if
                            not
                              (Rio.Types.is_app_addr t
                              || Rio.Types.ind_kind_of_token t <> None)
                          then violations := (tag, t) :: !violations
                      | _ -> violations := (tag, -1) :: !violations)
                  | Isa.Opcode.Hlt -> ()
                  | _ ->
                      (* call/ret/jmp* must have been mangled away *)
                      violations := (tag, -2) :: !violations));
    }
  in
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      ignore (Workload.run_rio ~client:probe w))
    [ "crafty"; "vortex"; "perlbmk"; "wupwise" ];
  checkb
    (Printf.sprintf "no linearity violations (%d found)"
       (List.length !violations))
    true (!violations = [])

let test_trace_linearity_under_clients () =
  (* composition order: optimizations first, probe last — the probe
     sees the final trace the clients produced *)
  let ok = ref true in
  let probe =
    {
      Rio.Types.null_client with
      name = "probe";
      trace_hook =
        Some
          (fun _ ~tag:_ il ->
            Rio.Instrlist.iter il (fun i ->
                if (not (Rio.Instr.is_bundle i)) && Rio.Instr.is_cti i then
                  match Rio.Instr.get_opcode i with
                  | Isa.Opcode.Jmp | Isa.Opcode.Jcc _ | Isa.Opcode.Hlt -> ()
                  | _ -> ok := false));
    }
  in
  let client = Clients.Compose.compose [ Clients.Compose.all_four (); probe ] in
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      ignore (Workload.run_rio ~client w))
    [ "eon"; "vortex" ];
  checkb "traces stay linear under optimization" true !ok

let () =
  Alcotest.run "invariants"
    [
      ( "cache consistency",
        [
          Alcotest.test_case "after plain and optimized runs" `Slow test_consistency_after_runs;
          Alcotest.test_case "after capacity flushes" `Quick test_consistency_with_capacity_flushes;
          Alcotest.test_case "after fifo eviction" `Quick test_consistency_with_fifo_eviction;
          Alcotest.test_case "after fragment replacement" `Quick test_consistency_after_replacements;
        ] );
      ( "trace linearity",
        [
          Alcotest.test_case "client view" `Slow test_trace_linearity;
          Alcotest.test_case "under optimization" `Slow test_trace_linearity_under_clients;
        ] );
    ]

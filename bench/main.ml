(** Benchmark harness: regenerates every table and figure of the
    paper's evaluation (see DESIGN.md §4 for the experiment index).

    {v
    dune exec bench/main.exe            # everything
    dune exec bench/main.exe table1     # one artifact
    dune exec bench/main.exe -- --help
    v}

    Table 1 and Figure 5 report {e simulated cycles} (deterministic);
    Table 2 reports real wall-clock time of this host's decoder and
    encoder via Bechamel, plus exact heap accounting. *)

open Workloads

let pr = Sweep.pr
let geomean = Sweep.geomean

let rec adjacent = function a :: (b :: _ as tl) -> (a, b) :: adjacent tl | _ -> []

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  pr "\n=== Table 1: performance of interpreter features (crafty, vpr) ===\n";
  pr "%-28s %10s %10s\n" "System Type" "crafty" "vpr";
  let wl = [ Option.get (Suite.by_name "crafty"); Option.get (Suite.by_name "vpr") ] in
  let rows =
    List.map
      (fun (name, opts) ->
        let opts = { opts with Rio.Options.max_cycles = max_int / 2 } in
        let ratios = List.map (fun w -> (Sweep.run ~label:name ~opts w).ratio) wl in
        (match ratios with
        | [ c; v ] -> pr "%-28s %10.1f %10.1f\n" name c v
        | _ -> assert false);
        (name, ratios))
      Rio.Options.table1_configs
  in
  pr "(paper: ~300/~300, 26.1/26.0, 5.1/3.0, 2.0/1.2, 1.7/1.1)\n%!";
  (* the paper's shape: each feature makes both workloads strictly
     faster, and indirect-branch-heavy crafty never beats vpr *)
  List.concat
    (List.mapi
       (fun k w ->
         List.map
           (fun ((above, a), (name, r)) ->
             Sweep.below
               (Printf.sprintf "%s: %s vs %s" w.Workload.name name above)
               ~bound:(List.nth a k) (List.nth r k))
           (adjacent rows))
       wl)
  @ List.map
      (fun (name, r) ->
        Sweep.at_least
          (Printf.sprintf "%s: crafty vs vpr" name)
          ~bound:(List.nth r 1) (List.nth r 0))
      rows

(* Extended Table 1: the same five configurations over the whole suite
   (not part of the paper; an appendix-style completeness check). *)
let table1x () =
  pr "\n=== Table 1 (extended): all workloads x all configurations ===\n";
  pr "%-9s" "bench";
  List.iter (fun (n, _) -> pr " %12s" n) Rio.Options.table1_configs;
  pr "\n";
  List.iter
    (fun w ->
      pr "%-9s" w.Workload.name;
      List.iter
        (fun (name, opts) ->
          let opts = { opts with Rio.Options.max_cycles = max_int / 2 } in
          pr " %12.1f" (Sweep.run ~label:name ~opts w).ratio)
        Rio.Options.table1_configs;
      pr "\n%!")
    Suite.all

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

(* Harvest the basic blocks of every workload by linear sweep of its
   text segment. *)
let harvest_blocks () : (Bytes.t * int) list =
  List.concat_map
    (fun w ->
      let image = Asm.Assemble.assemble w.Workload.program in
      let text = image.Asm.Image.text in
      let base = image.Asm.Image.text_base in
      let fetch a = Char.code (Bytes.get text (a - base)) in
      let stop = base + Bytes.length text in
      let blocks = ref [] in
      let rec go start pc =
        if pc >= stop then begin
          if pc > start then blocks := (start, pc) :: !blocks
        end
        else
          match Isa.Decode.opcode_eflags fetch pc with
          | Error _ -> if pc > start then blocks := (start, pc) :: !blocks
          | Ok (op, len) ->
              if Isa.Opcode.is_cti op then begin
                blocks := (start, pc + len) :: !blocks;
                go (pc + len) (pc + len)
              end
              else go start (pc + len)
      in
      go base base;
      List.map (fun (s, e) -> (Bytes.sub text (s - base) (e - s), s)) !blocks)
    Suite.all

(* One "decode" pass over a block at each representation level,
   mirroring §3.1's measurement. *)
let level_pass (lvl : int) (raw : Bytes.t) (addr : int) : Rio.Instr.t list =
  let fetch a = Char.code (Bytes.get raw (a - addr)) in
  let stop = addr + Bytes.length raw in
  match lvl with
  | 0 ->
      (* find the final boundary (scan) but keep one bundle *)
      let rec scan pc =
        if pc >= stop then () else scan (pc + Isa.Decode.boundary_exn fetch pc)
      in
      scan addr;
      [ Rio.Instr.of_bundle ~addr (Bytes.copy raw) ]
  | 1 | 2 | 3 | 4 ->
      let rec split pc acc =
        if pc >= stop then List.rev acc
        else
          let len = Isa.Decode.boundary_exn fetch pc in
          let piece = Bytes.sub raw (pc - addr) len in
          let i = Rio.Instr.of_raw ~addr:pc piece in
          (match lvl with
           | 1 -> ()
           | 2 -> Rio.Instr.uplevel2 i
           | 3 -> Rio.Instr.uplevel3 i
           | _ ->
               Rio.Instr.uplevel3 i;
               Rio.Instr.invalidate_raw i);
          split (pc + len) (i :: acc)
      in
      split addr []
  | _ -> invalid_arg "level_pass"

let encode_pass (instrs : Rio.Instr.t list) ~addr : int =
  List.fold_left
    (fun pc i ->
      let b = Rio.Instr.encode ~pc i in
      pc + Bytes.length b)
    addr instrs

let run_ols elt =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.6) () in
  let res = Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let est = Analyze.one ols Toolkit.Instance.monotonic_clock res in
  match Analyze.OLS.estimates est with Some [ e ] -> e | _ -> nan

let table2 () =
  pr "\n=== Table 2: decode+encode cost per representation level ===\n";
  let blocks = harvest_blocks () in
  let nblocks = List.length blocks in
  pr "(%d basic blocks harvested from the %d workloads)\n" nblocks
    (List.length Suite.all);
  pr "%-7s %14s %16s\n" "Level" "Time (us)" "Memory (bytes)";
  let open Bechamel in
  List.iter
    (fun lvl ->
      let test =
        Test.make
          ~name:(Printf.sprintf "level%d" lvl)
          (Staged.stage (fun () ->
               List.iter
                 (fun (raw, addr) ->
                   let il = level_pass lvl raw addr in
                   ignore (encode_pass il ~addr))
                 blocks))
      in
      let ns_per_pass = run_ols (List.hd (Test.elements test)) in
      let us_per_block = ns_per_pass /. 1000.0 /. float_of_int nblocks in
      let mem =
        List.fold_left
          (fun acc (rawb, addr) ->
            let il = level_pass lvl rawb addr in
            acc + (8 * Obj.reachable_words (Obj.repr il)))
          0 blocks
      in
      pr "%-7d %14.3f %16.1f\n%!" lvl us_per_block
        (float_of_int mem /. float_of_int nblocks))
    [ 0; 1; 2; 3; 4 ];
  pr "(paper: 2.12/64, 12.42/629, 13.01/629, 19.10/792, 61.79/792 — shape:\n";
  pr " time and memory increase with level; L4 encode far costlier than L3)\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 1: dispatch flow                                            *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  pr "\n=== Figure 1: system flow (observed dispatch events, gzip) ===\n";
  let w = Option.get (Suite.by_name "gzip") in
  let image = Asm.Assemble.assemble w.program in
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m w.input;
  ignore (Asm.Image.load m image);
  let rt = Rio.create m in
  Rio.enable_flow_log rt;
  let o = Rio.run rt in
  ignore (Sweep.check w ~ok:(o.Rio.reason = Rio.All_exited) (Vm.Machine.output m));
  let log = Rio.flow_log rt in
  pr "first 14 events:\n";
  List.iteri (fun k e -> if k < 14 then pr "  %2d. %s\n" (k + 1) e) log;
  let starts_with p e =
    String.length e >= String.length p && String.sub e 0 (String.length p) = p
  in
  let count p = List.length (List.filter (starts_with p) log) in
  pr "event counts over the whole run:\n";
  List.iter
    (fun p -> pr "  %-14s %6d\n" p (count p))
    [ "dispatch"; "build bb"; "start trace"; "built trace"; "enter trace";
      "ibl hit"; "ibl miss"; "halted" ];
  pr "(the flow matches Figure 1: dispatch -> bb builder -> code cache;\n";
  pr " exits return to dispatch until linked; traces take over hot code)\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 2: representation levels                                    *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  pr "\n=== Figure 2: one instruction sequence at five levels ===\n";
  let open Isa in
  (* the paper's sequence, transliterated to SynISA *)
  let seq =
    [
      Insn.mk_lea (Operand.Reg Reg.Esi) (Operand.mem_bi Reg.Ecx (Reg.Eax, 1));
      Insn.mk_mov (Operand.Reg Reg.Eax) (Operand.mem_base ~disp:0xc Reg.Esi);
      Insn.mk_sub (Operand.Reg Reg.Eax) (Operand.mem_base ~disp:0x1c Reg.Esi);
      Insn.mk_movzx16 (Operand.Reg Reg.Ecx) (Operand.mem_base ~disp:8 Reg.Esi);
      Insn.mk_shl (Operand.Reg Reg.Ecx) (Operand.Imm 7);
      Insn.mk_cmp (Operand.Reg Reg.Eax) (Operand.Reg Reg.Ecx);
      Insn.mk_jcc Cond.NL 0x77f52269;
    ]
  in
  let addr0 = 0x77f51800 in
  let bytes, _ =
    List.fold_left
      (fun (acc, pc) insn ->
        let b = Encode.encode_exn ~pc insn in
        (acc @ [ b ], pc + Bytes.length b))
      ([], addr0) seq
  in
  let raw = Bytes.concat Bytes.empty bytes in
  let hex = Disasm.hex_bytes in
  pr "Level 0  (one bundle, only the final boundary known):\n";
  pr "  raw: %s\n" (hex raw);
  pr "Level 1  (split, un-decoded):\n";
  List.iter (fun b -> pr "  %s\n" (hex b)) bytes;
  pr "Level 2  (opcode + eflags):\n";
  List.iter2
    (fun b insn ->
      pr "  %-26s %-8s %s\n" (hex b)
        (Opcode.name insn.Insn.opcode)
        (Fmt.str "%a" Eflags.pp_mask (Insn.eflags insn)))
    bytes seq;
  pr "Level 3  (fully decoded, raw bits valid):\n";
  List.iter2
    (fun b insn ->
      pr "  %-26s %-30s %s\n" (hex b)
        (Disasm.insn_to_string insn)
        (Fmt.str "%a" Eflags.pp_mask (Insn.eflags insn)))
    bytes seq;
  pr "Level 4  (modified: raw bits invalid, re-encode from operands):\n";
  List.iter
    (fun insn ->
      pr "  %-26s %-30s %s\n" "-"
        (Disasm.insn_to_string insn)
        (Fmt.str "%a" Eflags.pp_mask (Insn.eflags insn)))
    seq;
  pr "%!"

(* ------------------------------------------------------------------ *)
(* Figure 4: indirect-branch dispatch rewrite                         *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  pr "\n=== Figure 4: adaptive indirect-branch dispatch (eon trace) ===\n";
  let w = Option.get (Suite.by_name "eon") in
  let image = Asm.Assemble.assemble w.program in
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m w.input;
  ignore (Asm.Image.load m image);
  let before = ref None in
  let capture =
    {
      Rio.Types.null_client with
      name = "capture";
      trace_hook =
        Some
          (fun _ ~tag:_ il ->
            if !before = None then begin
              let b = Buffer.create 256 in
              Rio.Instrlist.iter il (fun i ->
                  Buffer.add_string b ("    " ^ Rio.Instr.to_string i ^ "\n"));
              before := Some (Buffer.contents b)
            end);
    }
  in
  let client = Clients.Compose.compose [ capture; Clients.Ibdispatch.make () ] in
  let rt = Rio.create ~client m in
  let o = Rio.run rt in
  ignore (Sweep.check w ~ok:(o.Rio.reason = Rio.All_exited) (Vm.Machine.output m));
  pr "-- trace as first created (client view, before any rewrite):\n%s"
    (Option.value !before ~default:"  (no trace built)\n");
  let ts = List.hd rt.Rio.Types.thread_states in
  let any_trace =
    let r = ref None in
    Rio.Fragindex.iter_traces ts.Rio.Types.index (fun _ f -> r := Some f);
    !r
  in
  (match any_trace with
   | None -> pr "-- no live trace\n"
   | Some frag ->
       let fetch = Vm.Memory.fetch (Vm.Machine.mem m) in
       pr "-- the same trace in the cache after %d adaptive rewrite(s)\n"
         (Rio.stats rt).Rio.Stats.fragments_replaced;
       pr "   (body, then exit stubs with the inserted compare chain):\n";
       List.iter (pr "    %s\n")
         (Isa.Disasm.region fetch ~pc:frag.Rio.Types.entry
            ~len:(frag.Rio.Types.total_end - frag.Rio.Types.entry)));
  pr "%s%!" (Rio.Api.client_output rt)

(* ------------------------------------------------------------------ *)
(* Figure 5                                                           *)
(* ------------------------------------------------------------------ *)

let figure5_bars () =
  [
    ("base", fun () -> Rio.Types.null_client);
    ("rlr", fun () -> Clients.Rlr.make ());
    ("strength", fun () -> Clients.Strength.make ~on_bb:false);
    ("ibdispatch", fun () -> Clients.Ibdispatch.make ());
    ("ctraces", fun () -> Stdlib.fst (Clients.Ctraces.make ()));
    ("combined", fun () -> Clients.Compose.all_four ());
  ]

let figure5 () =
  pr "\n=== Figure 5: normalized execution time (ratio to native; <1 is faster) ===\n";
  let bars = figure5_bars () in
  let names = List.map fst bars in
  pr "%-9s %5s" "bench" "";
  List.iter (pr " %10s") names;
  pr "\n";
  let results =
    List.map
      (fun w ->
        let row =
          List.map
            (fun (bname, mk) -> (Sweep.run ~label:bname ~client:(mk ()) w).ratio)
            bars
        in
        pr "%-9s %5s" w.Workload.name (if w.Workload.fp then "fp" else "int");
        List.iter (fun x -> pr " %10.3f" x) row;
        pr "\n%!";
        (w, row))
      Suite.all
  in
  let mean name sel =
    let rows =
      List.filter_map (fun (w, row) -> if sel w then Some row else None) results
    in
    let means =
      List.mapi (fun k _ -> geomean (List.map (fun r -> List.nth r k) rows)) bars
    in
    pr "%-9s %5s" name "";
    List.iter (fun x -> pr " %10.3f" x) means;
    pr "\n";
    List.combine names means
  in
  ignore (mean "mean-int" (fun w -> not w.Workload.fp));
  let fp = mean "mean-fp" (fun w -> w.Workload.fp) in
  let all = mean "mean-all" (fun _ -> true) in
  pr "(paper shape: rlr ~0.6 on mgrid and helps fp broadly; strength helps on\n";
  pr " the P4; ibdispatch helps branchy int; ctraces helps call-heavy; gcc and\n";
  pr " perlbmk slow down; combined mean ~= native, ~12%% better than base)\n%!";
  let mgrid =
    List.combine names
      (List.assoc "mgrid"
         (List.map (fun (w, row) -> (w.Workload.name, row)) results))
  in
  [
    Sweep.at_most "mgrid under rlr" ~bound:0.7 (List.assoc "rlr" mgrid);
    Sweep.at_most "combined mean-fp distance from native" ~bound:0.01
      (Float.abs (List.assoc "combined" fp -. 1.0));
    Sweep.below "combined mean-all vs base's"
      ~bound:(List.assoc "base" all) (List.assoc "combined" all);
  ]

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                *)
(* ------------------------------------------------------------------ *)

let ratio_of ?opts ?client w = (Sweep.run ?opts ?client w).ratio

let ablation () =
  pr "\n=== Ablations ===\n";

  pr "\n-- eflags liveness analysis (the Level-2 motivation, §3.1):\n";
  pr "   inline target checks save/restore flags only when live vs. always\n";
  pr "%-9s %12s %14s\n" "bench" "liveness" "always-save";
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      let live = ratio_of w in
      let always =
        ratio_of ~opts:{ Rio.Options.default with always_save_flags = true } w
      in
      pr "%-9s %12.3f %14.3f\n%!" name live always)
    [ "crafty"; "eon"; "gap"; "perlbmk"; "vortex" ];

  pr "\n-- trace-head threshold (hotness vs. responsiveness):\n";
  pr "%-9s" "bench";
  List.iter (fun t -> pr " %8d" t) [ 10; 25; 50; 100; 200 ];
  pr "\n";
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      pr "%-9s" name;
      List.iter
        (fun threshold ->
          pr " %8.3f"
            (ratio_of
               ~opts:{ Rio.Options.default with trace_threshold = threshold } w))
        [ 10; 25; 50; 100; 200 ];
      pr "\n%!")
    [ "crafty"; "gzip"; "gcc"; "mgrid" ];

  pr "\n-- sideline optimization (§3.4: optimize on a spare processor):\n";
  pr "%-9s %10s %10s %16s\n" "bench" "inline" "sideline" "offloaded cycles";
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      let inline_r = ratio_of ~client:(Clients.Compose.all_four ()) w in
      let side =
        Sweep.run
          ~opts:{ Rio.Options.default with sideline = true }
          ~client:(Clients.Compose.all_four ()) w
      in
      pr "%-9s %10.3f %10.3f %16d\n%!" name inline_r side.ratio
        (Rio.stats side.rt).Rio.Stats.sideline_cycles)
    [ "gcc"; "perlbmk"; "mgrid"; "vortex" ];

  pr "\n-- code-cache capacity (bytes; flush-the-world on overflow):\n";
  pr "%-9s" "bench";
  List.iter
    (fun c -> pr " %9s" (match c with None -> "unlimited" | Some b -> string_of_int b))
    [ None; Some 65536; Some 16384; Some 4096 ];
  pr "\n";
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      pr "%-9s" name;
      List.iter
        (fun cache_capacity ->
          let r =
            ratio_of
              ~opts:
                { Rio.Options.default with
                  cache_capacity;
                  (* this table is specifically about the legacy
                     flush-the-world policy; the FIFO policy gets its
                     own `cachesweep` subcommand *)
                  flush_policy = Rio.Options.Flush_full;
                }
              w
          in
          pr " %9.3f" r)
        [ None; Some 65536; Some 16384; Some 4096 ];
      pr "\n%!")
    [ "gcc"; "crafty"; "vpr" ];

  pr "\n-- adaptive dispatch chain depth (max inlined targets per check):\n";
  pr "%-9s" "bench";
  List.iter (fun k -> pr " %8d" k) [ 0; 1; 2; 4; 8 ];
  pr "\n";
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      pr "%-9s" name;
      List.iter
        (fun max_inline ->
          let client =
            if max_inline = 0 then Rio.Types.null_client
            else
              Clients.Ibdispatch.make
                ~params:{ Clients.Ibdispatch.default_params with max_inline }
                ()
          in
          pr " %8.3f" (ratio_of ~client w))
        [ 0; 1; 2; 4; 8 ];
      pr "\n%!")
    [ "eon"; "gap"; "crafty"; "perlbmk" ]

(* ------------------------------------------------------------------ *)
(* Trace profile: what the trace selector produces per workload       *)
(* ------------------------------------------------------------------ *)

let tracestats () =
  pr "\n=== Trace profile (base RIO, default thresholds) ===\n";
  pr "%-9s %7s %9s %9s %10s %11s %9s\n" "bench" "traces" "tr-bytes" "bb-bytes"
    "bb-enters" "trace-enters" "ibl-hits";
  List.iter
    (fun w ->
      let s = Rio.stats (Sweep.run w).rt in
      pr "%-9s %7d %9d %9d %10d %11d %9d\n%!" w.Workload.name
        s.Rio.Stats.traces_built s.Rio.Stats.cache_bytes_trace
        s.Rio.Stats.cache_bytes_bb s.Rio.Stats.enters_bb
        s.Rio.Stats.enters_trace
        (s.Rio.Stats.ibl_lookups - s.Rio.Stats.ibl_misses))
    Suite.all;
  pr "(entries are fragment entries from the runtime — dispatch or\n";
  pr " indirect-branch lookup; linked control flow stays in the cache)\n%!"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the infrastructure                    *)
(* ------------------------------------------------------------------ *)

let micro () =
  pr "\n=== Microbenchmarks (host wall time, Bechamel OLS ns/op) ===\n";
  let open Bechamel in
  let open Isa in
  let insn = Insn.mk_add (Operand.Reg Reg.Ebx) (Operand.mem_base ~disp:24 Reg.Ebp) in
  let raw = Encode.encode_exn ~pc:0x1000 insn in
  let fetch = Decode.fetch_bytes raw in
  let blocks = harvest_blocks () in
  let block, baddr = List.nth blocks (List.length blocks / 2) in
  let tests =
    [
      Test.make ~name:"encode one insn"
        (Staged.stage (fun () -> ignore (Encode.encode_exn ~pc:0x1000 insn)));
      Test.make ~name:"boundary scan one insn"
        (Staged.stage (fun () -> ignore (Decode.boundary_exn fetch 0)));
      Test.make ~name:"opcode+eflags decode"
        (Staged.stage (fun () -> ignore (Decode.opcode_eflags_exn fetch 0)));
      Test.make ~name:"full decode one insn"
        (Staged.stage (fun () -> ignore (Decode.full_exn fetch 0)));
      Test.make ~name:"level3 block pass"
        (Staged.stage (fun () ->
             ignore (encode_pass (level_pass 3 block baddr) ~addr:baddr)));
    ]
  in
  List.iter
    (fun t ->
      List.iter
        (fun elt -> pr "  %-24s %10.1f ns\n%!" (Test.Elt.name elt) (run_ols elt))
        (Test.elements t))
    tests

(* ------------------------------------------------------------------ *)
(* Fault sweep: the self-healing evaluation (DESIGN.md S34)           *)
(* ------------------------------------------------------------------ *)

let faultsweep () =
  pr "\n=== Fault sweep: self-healing cache under deterministic injection ===\n";
  let seeds = [ 1; 7; 42 ] in
  let wl = Suite.all in
  pr "(%d workloads x %d seeds, combined client, audit every dispatch)\n"
    (List.length wl) (List.length seeds);
  pr "%-9s %5s %8s %8s %7s %7s %7s %7s %7s %5s %6s\n" "bench" "runs" "injected"
    "detected" "reemit" "flfrag" "flworld" "emul" "hookfl" "quar" "output";
  let tot = ref (Rio.Stats.create ()) in
  let mismatches = ref 0 in
  List.iter
    (fun w ->
      let row = ref (Rio.Stats.create ()) in
      let row_ok = ref 0 in
      List.iter
        (fun seed ->
          let opts =
            {
              Rio.Options.default with
              faults = Some { Rio.Options.default_faults with fi_seed = seed };
              audit_period = 1;
              max_cycles = max_int / 2;
            }
          in
          let r =
            Sweep.run ~label:(Printf.sprintf "fault seed %d" seed) ~opts
              ~client:(Clients.Compose.all_four ()) w
          in
          if r.same then incr row_ok else incr mismatches;
          row := Rio.Stats.merge !row (Rio.stats r.rt))
        seeds;
      let row = !row in
      tot := Rio.Stats.merge !tot row;
      pr "%-9s %d/%d %8d %8d %7d %7d %7d %7d %7d %5d %6s\n%!" w.Workload.name
        !row_ok (List.length seeds) row.Rio.Stats.faults_injected
        row.Rio.Stats.faults_detected row.Rio.Stats.recover_reemit
        row.Rio.Stats.recover_flush_frag row.Rio.Stats.recover_flush_world
        row.Rio.Stats.recover_emulate row.Rio.Stats.hook_failures
        row.Rio.Stats.clients_quarantined
        (if !row_ok = List.length seeds then "ok" else "FAIL"))
    wl;
  let tot = !tot in
  pr "\nrecovery-rung histogram (all runs):\n";
  pr "  rung 0 re-emit fragment   %6d\n" tot.Rio.Stats.recover_reemit;
  pr "  rung 1 flush fragment     %6d\n" tot.Rio.Stats.recover_flush_frag;
  pr "  rung 2 flush the world    %6d\n" tot.Rio.Stats.recover_flush_world;
  pr "  rung 3 emulate only       %6d\n" tot.Rio.Stats.recover_emulate;
  pr "faults: %d injected, %d detected by audit; %d hook failures, %d clients quarantined, %d spurious signals dropped\n"
    tot.Rio.Stats.faults_injected tot.Rio.Stats.faults_detected
    tot.Rio.Stats.hook_failures tot.Rio.Stats.clients_quarantined
    tot.Rio.Stats.spurious_signals_dropped;
  (* audit overhead: same runs, auditing on vs. off, no injection *)
  pr "\naudit overhead (audit every dispatch vs. no audit, no faults):\n";
  pr "%-9s %12s %12s %8s\n" "bench" "plain" "audited" "ratio";
  let ratios =
    List.map
      (fun w ->
        let plain = (Sweep.run w).res.Workload.cycles in
        let audited =
          (Sweep.run ~label:"audit"
             ~opts:{ Rio.Options.default with audit_period = 1 } w)
            .res.Workload.cycles
        in
        let ratio = float_of_int audited /. float_of_int plain in
        pr "%-9s %12d %12d %8.3f\n%!" w.Workload.name plain audited ratio;
        ratio)
      wl
  in
  pr "%-9s %12s %12s %8.3f (geomean)\n" "mean" "" "" (geomean ratios);
  if !mismatches = 0 then
    pr "\nall %d injected runs terminated with output identical to native\n%!"
      (List.length wl * List.length seeds)
  else pr "\n!! %d runs diverged\n%!" !mismatches

(* ------------------------------------------------------------------ *)
(* Cache sweep: capacity ladder x flush policy                        *)
(* ------------------------------------------------------------------ *)

(* How do the two capacity policies degrade as the code cache shrinks
   from unbounded to tiny?  Simulated cycle ratios tell the paper-side
   story (eviction cost vs. flush-and-rebuild cost); host MIPS tracks
   what the allocator churn costs this implementation.  Every run's
   output is checked against native, and FIFO runs must never fall back
   to a full flush on these single-threaded workloads. *)

type cs_row = {
  cs_bench : string;
  cs_policy : string;               (* "fifo" | "full" | "unbounded" *)
  cs_cap : int option;
  cs_ratio : float;                 (* simulated cycles / native cycles *)
  cs_mips : float;                  (* host throughput of the one run *)
  cs_evictions : int;
  cs_flushes : int;
  cs_dropped : int;
  cs_fallbacks : int;
}

let cachesweep_one (w : Workload.t) ~policy_name ~policy ~cap : cs_row =
  let native = Sweep.native w in
  let opts =
    { Rio.Options.default with
      cache_capacity = cap;
      flush_policy = policy;
      max_cycles = max_int / 2;
    }
  in
  let t0 = Sweep.time_now () in
  let r =
    Sweep.run
      ~label:
        (Printf.sprintf "%s/%s" policy_name
           (match cap with None -> "unbounded" | Some c -> string_of_int c))
      ~opts w
  in
  let host_s = Sweep.time_now () -. t0 in
  let s = Rio.stats r.rt in
  {
    cs_bench = w.Workload.name;
    cs_policy = policy_name;
    cs_cap = cap;
    cs_ratio = r.ratio;
    cs_mips = float_of_int native.Workload.insns /. host_s /. 1.0e6;
    cs_evictions = s.Rio.Stats.evictions;
    cs_flushes = s.Rio.Stats.cache_flushes;
    cs_dropped = s.Rio.Stats.traces_dropped;
    cs_fallbacks = s.Rio.Stats.full_flush_fallbacks;
  }

let cachesweep { Sweep.quick; _ } =
  let ladder =
    if quick then [ Some 16384; Some 4096 ]
    else [ Some 65536; Some 32768; Some 16384; Some 8192; Some 4096 ]
  in
  let wl =
    if quick then
      List.filter_map Suite.by_name
        [ "gcc"; "crafty"; "eon"; "vpr"; "mgrid"; "gzip" ]
    else Suite.all
  in
  pr "\n=== Cache sweep: capacity ladder x flush policy (%s mode) ===\n"
    (if quick then "quick" else "full");
  pr "(%d workloads; every run's output checked against native)\n"
    (List.length wl);
  let configs =
    ("unbounded", Rio.Options.Flush_fifo, None)
    :: List.concat_map
         (fun cap ->
           [
             ("fifo", Rio.Options.Flush_fifo, cap);
             ("full", Rio.Options.Flush_full, cap);
           ])
         ladder
  in
  pr "%-9s %10s %14s %10s %10s %8s %8s %9s\n" "policy" "capacity" "geomean-ratio"
    "gm-MIPS" "evictions" "flushes" "dropped" "fallbacks";
  let rows =
    List.concat_map
      (fun (policy_name, policy, cap) ->
        let rs =
          List.map (fun w -> cachesweep_one w ~policy_name ~policy ~cap) wl
        in
        let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
        pr "%-9s %10s %14.3f %10.3f %10d %8d %8d %9d\n%!" policy_name
          (match cap with None -> "unbounded" | Some c -> string_of_int c)
          (geomean (List.map (fun r -> r.cs_ratio) rs))
          (geomean (List.map (fun r -> r.cs_mips) rs))
          (sum (fun r -> r.cs_evictions))
          (sum (fun r -> r.cs_flushes))
          (sum (fun r -> r.cs_dropped))
          (sum (fun r -> r.cs_fallbacks))
        ;
        rs)
      configs
  in
  let fifo_flushes =
    List.fold_left
      (fun a r -> if r.cs_policy = "fifo" then a + r.cs_flushes else a)
      0 rows
  in
  if fifo_flushes = 0 then
    pr "\nall outputs identical to native; FIFO rows ran with zero full flushes\n%!"
  else pr "\n!! FIFO rows fell back to %d full flushes\n%!" fifo_flushes;
  (* write the JSON datapoint *)
  let open Rio.Json in
  ( [ ("fifo_full_flushes", Int fifo_flushes);
      ( "rows",
        Arr
          (List.map
             (fun r ->
               Obj
                 [ ("bench", Str r.cs_bench);
                   ("policy", Str r.cs_policy);
                   ( "capacity",
                     match r.cs_cap with None -> Null | Some c -> Int c );
                   ("cycle_ratio", Float r.cs_ratio);
                   ("mips", Float r.cs_mips);
                   ("evictions", Int r.cs_evictions);
                   ("cache_flushes", Int r.cs_flushes);
                   ("traces_dropped", Int r.cs_dropped);
                   ("full_flush_fallbacks", Int r.cs_fallbacks) ])
             rows) );
    ],
    [ Sweep.at_most "FIFO full flushes" ~bound:0.0 (float_of_int fifo_flushes) ] )

(* ------------------------------------------------------------------ *)
(* Opt sweep: the trace-optimizer evaluation (DESIGN.md §6.4)         *)
(* ------------------------------------------------------------------ *)

(* How much simulated time do the in-core -O passes recover?  Every
   run's output is checked against native (with and without fault
   injection); -O0 must reproduce the plain-RIO cycle counts exactly;
   and a bounded-FIFO configuration with a low re-optimization
   threshold must exercise the decode/replace path without ever falling
   back to a full flush. *)

(* One checked run of a workload at one -O level. *)
type level_row = {
  bench : string;
  level : int;
  cycles : int;
  ratio : float;  (* simulated cycles / native cycles *)
  stats : Rio.Stats.t;
}

(* Every workload (of [quick_set] in quick mode) at every -O level of
   [levels], printed one table row per workload ([head] and [extra] add
   its last columns), with the geomean row under them.  Returns the
   rows, each bench's -O0 cycles, the geomean over benches of level
   [l]'s cycles against -O0, and the worst row against its -O0 row. *)
let level_sweep ~title ~quick ~quick_set ~levels ~head ~extra =
  let wl =
    if quick then List.filter_map Suite.by_name quick_set else Suite.all
  in
  pr "\n=== %s (%s mode) ===\n" title (if quick then "quick" else "full");
  pr "(%d workloads; every run's output checked against native)\n"
    (List.length wl);
  pr "%-9s %5s" "bench" "";
  List.iter (fun l -> pr " %9s" (Printf.sprintf "-O%d" l)) levels;
  pr "%s\n" head;
  let rows =
    List.concat_map
      (fun w ->
        let runs =
          List.map
            (fun level ->
              let opts =
                { Rio.Options.default with opt_level = level;
                  max_cycles = max_int / 2 }
              in
              let r = Sweep.run ~label:(Printf.sprintf "-O%d" level) ~opts w in
              {
                bench = w.Workload.name;
                level;
                cycles = r.res.Workload.cycles;
                ratio = r.ratio;
                stats = Rio.stats r.rt;
              })
            levels
        in
        pr "%-9s %5s" w.Workload.name (if w.Workload.fp then "fp" else "int");
        List.iter (fun r -> pr " %9.3f" r.ratio) runs;
        extra runs;
        runs)
      wl
  in
  let o0 bench =
    (List.find (fun o -> o.bench = bench && o.level = 0) rows).cycles
  in
  let vs_o0 r = float_of_int r.cycles /. float_of_int (o0 r.bench) in
  pr "%-9s %5s" "geomean" "";
  List.iter
    (fun l ->
      pr " %9.3f"
        (geomean (List.filter_map (fun r -> if r.level = l then Some r.ratio else None) rows)))
    levels;
  let worst =
    List.fold_left
      (fun (wr, wn) r ->
        if vs_o0 r > wr then (vs_o0 r, Printf.sprintf "%s -O%d" r.bench r.level)
        else (wr, wn))
      (0.0, "-") rows
  in
  let geomean_vs_o0 l =
    geomean (List.filter_map (fun r -> if r.level = l then Some (vs_o0 r) else None) rows)
  in
  (wl, rows, o0, geomean_vs_o0, worst)

let worst_gate (worst, name) =
  Sweep.at_most ("worst cycles vs own -O0 row (" ^ name ^ ")") ~bound:1.02 worst

let optsweep ({ Sweep.quick; _ } as cli) =
  let bundle_path =
    match List.assoc_opt "--bundle" cli.Sweep.flags with
    | Some p -> Some p (* explicit: a load failure then fails a gate *)
    | None -> if Sys.file_exists "bundle.json" then Some "bundle.json" else None
  in
  let levels = [ 0; 1; 2 ] in
  let wl, rows, o0, vs_o0, worst =
    level_sweep ~title:"Opt sweep: -O levels x workloads" ~quick
      ~quick_set:[ "gzip"; "gcc"; "crafty"; "perlbmk"; "swim"; "mgrid"; "art" ]
      ~levels ~head:(Printf.sprintf " %9s" "O2/O0") ~extra:(fun runs ->
        pr " %9.3f\n%!"
          (float_of_int (List.nth runs 2).cycles
          /. float_of_int (List.hd runs).cycles))
  in
  let o2_vs_o0 = vs_o0 2 in
  pr " %9.3f\n" o2_vs_o0;
  let reduction_pct = (1.0 -. o2_vs_o0) *. 100.0 in
  pr "-O2 removes %.1f%% of simulated app cycles (geomean vs -O0)\n%!"
    reduction_pct;

  (* -O0 must reproduce the plain-RIO golden cycle counts exactly *)
  let o0_drift = ref 0 in
  List.iter
    (fun w ->
      let plain =
        (Sweep.run ~opts:{ Rio.Options.default with max_cycles = max_int / 2 } w)
          .res.Workload.cycles
      in
      let o0 = o0 w.Workload.name in
      if plain <> o0 then begin
        incr o0_drift;
        pr "!! %s: -O0 cycles %d differ from plain RIO %d\n%!" w.Workload.name
          o0 plain
      end)
    wl;
  if !o0_drift = 0 then pr "-O0 cycle counts identical to plain RIO on every workload\n%!";

  (* the same levels under deterministic fault injection *)
  pr "\n-- fault-injection variants (seed %d, audit every dispatch):\n"
    Rio.Options.default_faults.Rio.Options.fi_seed;
  List.iter
    (fun level ->
      let label = Printf.sprintf "-O%d+faults" level in
      let opts =
        { Rio.Options.default with
          opt_level = level;
          faults = Some Rio.Options.default_faults;
          audit_period = 1;
          max_cycles = max_int / 2 }
      in
      let same = List.map (fun w -> (Sweep.run ~label ~opts w).same) wl in
      if List.for_all Fun.id same then
        pr "   -O%d: all outputs identical to native under injection\n%!" level)
    levels;

  (* hot-trace re-optimization under a bounded FIFO cache *)
  pr "\n-- hot-trace re-optimization (bounded FIFO, --reopt 2):\n";
  let reopt_total = ref 0 and reopt_fallbacks = ref 0 and reopt_benches = ref 0 in
  List.iter
    (fun w ->
      let opts =
        { Rio.Options.default with
          opt_level = 2;
          reopt_threshold = Some 2;
          cache_capacity = Some (Rio.Options.min_cache_capacity Rio.Options.default * 3);
          flush_policy = Rio.Options.Flush_fifo;
          max_cycles = max_int / 2 }
      in
      let s = Rio.stats (Sweep.run ~label:"-O2+reopt" ~opts w).rt in
      reopt_total := !reopt_total + s.Rio.Stats.traces_reoptimized;
      reopt_fallbacks := !reopt_fallbacks + s.Rio.Stats.full_flush_fallbacks;
      if s.Rio.Stats.traces_reoptimized > 0 then incr reopt_benches)
    wl;
  pr "   %d traces re-optimized in place across %d/%d workloads; %d full-flush fallbacks\n%!"
    !reopt_total !reopt_benches (List.length wl) !reopt_fallbacks;

  (* the autotuned bundle's per-bench levels must never be worse than
     that bundle's own -O0 projection — the guard against the gcc-style
     regression where a globally-good level hurts one workload.  This
     replays exactly the single-engine measurement the autotuner's
     override pass used as its hard constraint. *)
  let bundle_rows = ref [] in
  let bundle_gates =
    match bundle_path with
    | None ->
        pr "\n-- no tuned bundle found (pass --bundle FILE); skipping the \
            never-worse-than--O0 check\n%!";
        []
    | Some path -> (
        match Rio.Bundle.load path with
        | Error e ->
            pr "!! bundle %s failed to load: %s\n%!" path
              (Rio.Bundle.error_to_string e);
            [ Sweep.holds ("tuned bundle " ^ path ^ " loads") false ]
        | Ok b ->
            pr "\n-- tuned bundle %s (digest %08x): per-bench \
                never-worse-than--O0 check:\n"
              path (Rio.Bundle.digest b);
            let worse = ref 0 in
            List.iter
              (fun w ->
                let name = w.Workload.name in
                let tuned =
                  { (Rio.Bundle.opts_for b name) with
                    Rio.Options.max_cycles = max_int / 2 }
                in
                let b0 = { b with Rio.Bundle.b_overrides = [ (name, 0) ] } in
                let o0 =
                  { (Rio.Bundle.opts_for b0 name) with
                    Rio.Options.max_cycles = max_int / 2 }
                in
                let level = tuned.Rio.Options.opt_level in
                let rt =
                  (Sweep.run ~label:(Printf.sprintf "bundle(-O%d)" level)
                     ~opts:tuned w)
                    .res.Workload.cycles
                in
                let r0 =
                  (Sweep.run ~label:"bundle(-O0)" ~opts:o0 w).res.Workload.cycles
                in
                if rt > r0 then incr worse;
                bundle_rows := (name, level, rt, r0) :: !bundle_rows;
                pr "   %-9s -O%d %9d vs -O0 %9d  %s\n%!" name level rt r0
                  (if rt > r0 then "!! WORSE" else "ok"))
              wl;
            if !worse = 0 then
              pr "   bundle level is never worse than -O0 on any bench\n%!";
            [
              Sweep.at_most "benches where the bundle level is worse than -O0"
                ~bound:0.0 (float_of_int !worse);
            ])
  in
  let bundle_rows = List.rev !bundle_rows in
  let open Rio.Json in
  ( [ ("o2_vs_o0_geomean_cycle_ratio", Float o2_vs_o0);
      ("o2_geomean_cycles_removed_pct", Float reduction_pct);
      ("o0_cycle_drift", Int !o0_drift);
      ("traces_reoptimized", Int !reopt_total);
      ("reopt_workloads", Int !reopt_benches);
      ("reopt_full_flush_fallbacks", Int !reopt_fallbacks);
      ("bundle_checked", Bool (bundle_path <> None));
      ( "bundle_worse_than_o0",
        Int
          (List.length
             (List.filter (fun (_, _, t, o) -> t > o) bundle_rows)) );
      ( "bundle_rows",
        Arr
          (List.map
             (fun (bench, level, tuned, o0) ->
               Obj
                 [ ("bench", Str bench);
                   ("level", Int level);
                   ("tuned_cycles", Int tuned);
                   ("o0_cycles", Int o0) ])
             bundle_rows) );
      ( "rows",
        Arr
          (List.map
             (fun r ->
               Obj
                 [ ("bench", Str r.bench);
                   ("level", Int r.level);
                   ("sim_cycles", Int r.cycles);
                   ("cycle_ratio", Float r.ratio);
                   ("insns_removed", Int r.stats.Rio.Stats.opt_insns_removed) ])
             rows) );
    ],
    [
      Sweep.at_most "workloads whose -O0 cycles differ from plain RIO"
        ~bound:0.0 (float_of_int !o0_drift);
      Sweep.at_least "traces re-optimized under --reopt 2" ~bound:1.0
        (float_of_int !reopt_total);
      Sweep.at_most "re-optimization full-flush fallbacks" ~bound:0.0
        (float_of_int !reopt_fallbacks);
      worst_gate worst;
    ]
    @ bundle_gates
    @
    if quick then []
    else
      [ Sweep.at_least "-O2 geomean cycles removed (%)" ~bound:5.0 reduction_pct ]
  )

(* ------------------------------------------------------------------ *)
(* Spec sweep: the speculative tier evaluation (DESIGN.md §6.7)       *)
(* ------------------------------------------------------------------ *)

(* What does -O3 speculation buy over -O2, and does the guard
   machinery ever hurt?  Every run's output is checked against native;
   the -O3 geomean must beat the -O2 tier's recorded 0.930; no single
   bench may regress more than 2% against its own -O0 row; and at
   least one workload must exercise the full lifecycle — speculate,
   violate, deoptimize, re-optimize. *)

let specsweep { Sweep.quick; _ } =
  let guards r =
    r.stats.Rio.Stats.spec_guards_ind + r.stats.Rio.Stats.spec_guards_const
  and violations r = r.stats.Rio.Stats.spec_violations
  and despecs r = r.stats.Rio.Stats.spec_despecs in
  let _, rows, _, vs_o0, worst =
    level_sweep ~title:"Spec sweep: speculative optimization (-O3) x workloads"
      ~quick
      ~quick_set:[ "gzip"; "gcc"; "crafty"; "eon"; "perlbmk"; "mesa"; "art" ]
      ~levels:[ 0; 2; 3 ]
      ~head:(Printf.sprintf " %7s %6s %6s %6s" "O3/O0" "guards" "viols" "despec")
      ~extra:(fun runs ->
        let o3 = List.nth runs 2 in
        pr " %7.3f %6d %6d %6d\n%!"
          (float_of_int o3.cycles /. float_of_int (List.hd runs).cycles)
          (guards o3) (violations o3) (despecs o3))
  in
  let o2_vs_o0 = vs_o0 2 and o3_vs_o0 = vs_o0 3 in
  pr " %7.3f\n" o3_vs_o0;
  pr "-O3 vs -O0 geomean %.4f (tier target: beat -O2's recorded 0.930)\n%!"
    o3_vs_o0;
  (* the lifecycle witnesses: benches whose -O3 run speculated, took
     guard violations, deoptimized, and re-speculated after the deopt
     (more guards compiled than assumptions retired) *)
  let witnesses =
    List.filter
      (fun r ->
        r.level = 3 && despecs r >= 1
        && violations r >= despecs r
        && guards r > despecs r)
      rows
  in
  (match witnesses with
   | r :: _ ->
       pr "lifecycle witness: %s (%d guards, %d violations, %d despecs)\n%!"
         r.bench (guards r) (violations r) (despecs r)
   | [] -> pr "!! no workload exercised the full speculation lifecycle\n%!");
  if fst worst <= 1.02 then
    pr "no bench regresses >2%% against its -O0 row at any level\n%!";
  let open Rio.Json in
  ( [ ("o3_vs_o0_geomean_cycle_ratio", Float o3_vs_o0);
      ("o2_vs_o0_geomean_cycle_ratio", Float o2_vs_o0);
      ( "lifecycle_bench",
        Str (match witnesses with r :: _ -> r.bench | [] -> "") );
      ( "rows",
        Arr
          (List.map
             (fun r ->
               Obj
                 [ ("bench", Str r.bench);
                   ("level", Int r.level);
                   ("sim_cycles", Int r.cycles);
                   ("cycle_ratio", Float r.ratio);
                   ("guards", Int (guards r));
                   ("violations", Int (violations r));
                   ("despecs", Int (despecs r));
                   ("exit_biases", Int r.stats.Rio.Stats.spec_exit_biases) ])
             rows) );
    ],
    [
      worst_gate worst;
      Sweep.at_least "workloads exercising the full speculation lifecycle"
        ~bound:1.0
        (float_of_int (List.length witnesses));
    ]
    @
    if quick then []
    else [ Sweep.below "-O3 geomean cycles vs -O0" ~bound:0.930 o3_vs_o0 ] )

(* ------------------------------------------------------------------ *)
(* The experiment table                                               *)
(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  out : string option;  (* default datapoint file; [None] for a printed artifact *)
  flags : string list;  (* value options beyond [--quick] and [--out] *)
  alarm : (int * int) option;  (* hang backstop in seconds: quick, full *)
  run : Sweep.cli -> Rio.Json.t option * Sweep.gate list;
}

let artifact name f =
  { name; out = None; flags = []; alarm = None; run = (fun _ -> (None, f ())) }

(* An artifact whose only gate is the divergence gate of its runs. *)
let printed name f = artifact name (fun () -> f (); [])

(* A sweep's datapoint: its schema tag and mode, then what [f] measured. *)
let sweep ?(flags = []) ?alarm name out f =
  {
    name;
    out = Some out;
    flags;
    alarm;
    run =
      (fun cli ->
        let fields, gates = f cli in
        ( Some
            (Rio.Json.Obj
               (("schema", Rio.Json.Str ("rio-" ^ name ^ "-v1"))
               :: ("quick", Rio.Json.Bool cli.Sweep.quick)
               :: fields)),
          gates ));
  }

let experiments =
  [
    artifact "table1" table1;
    printed "table1x" table1x;
    printed "table2" table2;
    printed "figure1" figure1;
    printed "figure2" figure2;
    printed "figure4" figure4;
    artifact "figure5" figure5;
    printed "ablation" ablation;
    printed "tracestats" tracestats;
    printed "faultsweep" faultsweep;
    printed "micro" micro;
    sweep "cachesweep" "BENCH_cache.json" cachesweep;
    sweep ~flags:[ "--bundle" ] "optsweep" "BENCH_opt.json" optsweep;
    sweep "specsweep" "BENCH_spec.json" specsweep;
    sweep "parsweep" "BENCH_parallel.json" Parsweep.run;
    sweep "servesweep" "BENCH_serve.json" Servesweep.run;
    sweep ~alarm:(300, 900) "chaossweep" "BENCH_chaos.json" Chaossweep.run;
    sweep ~alarm:(300, 900) "persistsweep" "BENCH_persist.json"
      Persistsweep.run;
    sweep ~flags:[ "--bundle-out" ] ~alarm:(420, 3000) "autotune"
      "BENCH_autotune.json" Autotune.run;
  ]

(* Run one experiment and print its gates: its own, the divergence gate
   of the runs it compared with native, and one for an escaped
   exception. *)
let run_row (row : row) (cli : Sweep.cli) =
  Sweep.checked := 0;
  Sweep.diverged := 0;
  let body () = row.run cli in
  let json, gates =
    match
      match row.alarm with
      | None -> body ()
      | Some (q, full) ->
          Sweep.with_alarm ~name:row.name (if cli.Sweep.quick then q else full) body
    with
    | r -> r
    | exception e ->
        pr "!! %s raised %s\n%!" row.name (Printexc.to_string e);
        (None, [ Sweep.holds "ran to completion" false ])
  in
  Option.iter (Sweep.write_json ~path:cli.Sweep.out) json;
  Sweep.print_gates row.name (gates @ Sweep.divergence_gate ())

let usage =
  let row_usage r =
    match r.out with
    | None -> r.name
    | Some _ ->
        String.concat " "
          (r.name :: "[--quick]" :: "[--out f]"
          :: List.map (fun f -> "[" ^ f ^ " f]") r.flags)
  in
  "usage: main.exe ["
  ^ String.concat "|" (List.map row_usage experiments @ [ "all"; "gates [--quick]" ])
  ^ "]"

let usage_error msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let find name = List.find_opt (fun r -> r.name = name) experiments

(* Where [gates] and every quick run write their datapoints and tuned
   bundle, so that only a full run replaces a committed file. *)
let in_gates f =
  let dir = "_gates" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir f

(* Fill in the paths the options left out: the row's committed
   datapoint and [bundle.json] for a full run, their [_gates/] copies
   for a quick one. *)
let with_default_paths row (cli : Sweep.cli) : Sweep.cli =
  let place f = if cli.Sweep.quick then in_gates f else f in
  {
    cli with
    out =
      (if cli.Sweep.out = "" then place (Option.value row.out ~default:"")
       else cli.Sweep.out);
    flags =
      (if List.mem_assoc "--bundle-out" cli.Sweep.flags then cli.Sweep.flags
       else ("--bundle-out", place "bundle.json") :: cli.Sweep.flags);
  }

(* Split the arguments into experiments, each followed by its options. *)
let rec parse = function
  | [] -> []
  | name :: rest -> (
      match find name with
      | None -> usage_error (Printf.sprintf "unknown artifact %S" name)
      | Some row ->
          let rec opts (cli : Sweep.cli) = function
            | "--quick" :: tl when row.out <> None -> opts { cli with quick = true } tl
            | "--out" :: p :: tl when row.out <> None -> opts { cli with out = p } tl
            | f :: v :: tl when List.mem f row.flags ->
                opts { cli with flags = (f, v) :: cli.flags } tl
            | a :: _ when find a = None ->
                usage_error (Printf.sprintf "%s: unknown argument %s" name a)
            | tl -> (row, with_default_paths row cli) :: parse tl
          in
          opts { Sweep.quick = false; out = ""; flags = [] } rest)

(* Every experiment in the table, its datapoints and tuned bundle
   written under _gates/ so no committed file is touched. *)
let gates ~quick =
  List.iter
    (fun row ->
      run_row row
        {
          Sweep.quick;
          out = in_gates (Option.value row.out ~default:"");
          flags = [ ("--bundle-out", in_gates "bundle.json") ];
        })
    experiments

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--help" ] | [ "-h" ] -> print_endline usage
  | "gates" :: rest ->
      (match rest with
      | [] -> gates ~quick:false
      | [ "--quick" ] -> gates ~quick:true
      | a :: _ -> usage_error ("gates: unknown argument " ^ a));
      Sweep.finish ()
  | args ->
      (* no experiment named: every printed artifact *)
      let args =
        if args = [] || args = [ "all" ] then
          List.filter_map
            (fun r -> if r.out = None then Some r.name else None)
            experiments
        else args
      in
      List.iter (fun (row, cli) -> run_row row cli) (parse args);
      Sweep.finish ()

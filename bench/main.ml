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

let pr fmt = Printf.printf fmt

(* shared sweep scaffolding (CLI parsing, JSON emission, native checks)
   lives in [Sweep]; alias the helpers used throughout *)
let geomean = Sweep.geomean

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  pr "\n=== Table 1: performance of interpreter features (crafty, vpr) ===\n";
  pr "%-28s %10s %10s\n" "System Type" "crafty" "vpr";
  let wl = [ Option.get (Suite.by_name "crafty"); Option.get (Suite.by_name "vpr") ] in
  let native = List.map (fun w -> float_of_int (Workload.run_native w).cycles) wl in
  List.iter
    (fun (name, opts) ->
      let opts = { opts with Rio.Options.max_cycles = max_int / 2 } in
      let ratios =
        List.map2
          (fun w n ->
            let r, _ = Workload.run_rio ~opts w in
            if not r.Workload.ok then
              failwith (Printf.sprintf "table1: %s under %s: %s" w.name name r.detail);
            float_of_int r.cycles /. n)
          wl native
      in
      match ratios with
      | [ c; v ] -> pr "%-28s %10.1f %10.1f\n" name c v
      | _ -> assert false)
    Rio.Options.table1_configs;
  pr "(paper: ~300/~300, 26.1/26.0, 5.1/3.0, 2.0/1.2, 1.7/1.1)\n%!"

(* Extended Table 1: the same five configurations over the whole suite
   (not part of the paper; an appendix-style completeness check). *)
let table1x () =
  pr "\n=== Table 1 (extended): all workloads x all configurations ===\n";
  pr "%-9s" "bench";
  List.iter (fun (n, _) -> pr " %12s" n) Rio.Options.table1_configs;
  pr "\n";
  List.iter
    (fun w ->
      let native = float_of_int (Workload.run_native w).cycles in
      pr "%-9s" w.Workload.name;
      List.iter
        (fun (_, opts) ->
          let opts = { opts with Rio.Options.max_cycles = max_int / 2 } in
          let r, _ = Workload.run_rio ~opts w in
          if not r.Workload.ok then failwith (w.Workload.name ^ ": failed");
          pr " %12.1f" (float_of_int r.cycles /. native))
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
  ignore (Rio.run rt);
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
  ignore (Rio.run rt);
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
  pr "%-9s %5s" "bench" "";
  List.iter (fun (n, _) -> pr " %10s" n) bars;
  pr "\n";
  let results =
    List.map
      (fun w ->
        let n = Workload.run_native w in
        if not n.Workload.ok then failwith (w.Workload.name ^ ": native failed");
        let row =
          List.map
            (fun (bname, mk) ->
              let r, _ = Workload.run_rio ~client:(mk ()) w in
              if not r.Workload.ok then
                failwith (Printf.sprintf "%s/%s: %s" w.Workload.name bname r.detail);
              if r.Workload.output <> n.Workload.output then
                failwith
                  (Printf.sprintf "%s/%s: OUTPUT MISMATCH" w.Workload.name bname);
              float_of_int r.cycles /. float_of_int n.cycles)
            bars
        in
        pr "%-9s %5s" w.Workload.name (if w.Workload.fp then "fp" else "int");
        List.iter (fun x -> pr " %10.3f" x) row;
        pr "\n%!";
        (w, row))
      Suite.all
  in
  let mean_of sel =
    let rows =
      List.filter_map (fun (w, row) -> if sel w then Some row else None) results
    in
    List.mapi (fun k _ -> geomean (List.map (fun r -> List.nth r k) rows)) bars
  in
  let print_mean name sel =
    pr "%-9s %5s" name "";
    List.iter (fun x -> pr " %10.3f" x) (mean_of sel);
    pr "\n"
  in
  print_mean "mean-int" (fun w -> not w.Workload.fp);
  print_mean "mean-fp" (fun w -> w.Workload.fp);
  print_mean "mean-all" (fun _ -> true);
  pr "(paper shape: rlr ~0.6 on mgrid and helps fp broadly; strength helps on\n";
  pr " the P4; ibdispatch helps branchy int; ctraces helps call-heavy; gcc and\n";
  pr " perlbmk slow down; combined mean ~= native, ~12%% better than base)\n%!"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                *)
(* ------------------------------------------------------------------ *)

let ratio_of ?(opts = Rio.Options.default) ?(client = Rio.Types.null_client) w =
  let n = Workload.run_native w in
  let r, rt = Workload.run_rio ~opts ~client w in
  if (not r.Workload.ok) || r.Workload.output <> n.Workload.output then
    failwith (w.Workload.name ^ ": ablation run diverged");
  (float_of_int r.cycles /. float_of_int n.cycles, rt)

let ablation () =
  pr "\n=== Ablations ===\n";

  pr "\n-- eflags liveness analysis (the Level-2 motivation, §3.1):\n";
  pr "   inline target checks save/restore flags only when live vs. always\n";
  pr "%-9s %12s %14s\n" "bench" "liveness" "always-save";
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      let live, _ = ratio_of w in
      let always, _ =
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
          let r, _ =
            ratio_of ~opts:{ Rio.Options.default with trace_threshold = threshold } w
          in
          pr " %8.3f" r)
        [ 10; 25; 50; 100; 200 ];
      pr "\n%!")
    [ "crafty"; "gzip"; "gcc"; "mgrid" ];

  pr "\n-- sideline optimization (§3.4: optimize on a spare processor):\n";
  pr "%-9s %10s %10s %16s\n" "bench" "inline" "sideline" "offloaded cycles";
  List.iter
    (fun name ->
      let w = Option.get (Suite.by_name name) in
      let inline_r, _ = ratio_of ~client:(Clients.Compose.all_four ()) w in
      let side_r, rt =
        ratio_of
          ~opts:{ Rio.Options.default with sideline = true }
          ~client:(Clients.Compose.all_four ()) w
      in
      pr "%-9s %10.3f %10.3f %16d\n%!" name inline_r side_r
        (Rio.stats rt).Rio.Stats.sideline_cycles)
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
          let r, _ =
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
          let r, _ = ratio_of ~client w in
          pr " %8.3f" r)
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
      let r, rt = Workload.run_rio w in
      if not r.Workload.ok then failwith (w.Workload.name ^ ": failed");
      let s = Rio.stats rt in
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
      let native = Workload.run_native w in
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
          let r, rt = Workload.run_rio ~opts ~client:(Clients.Compose.all_four ()) w in
          if r.Workload.ok && r.Workload.output = native.Workload.output then
            incr row_ok
          else begin
            incr mismatches;
            pr "  !! %s seed %d: %s (output %s)\n" w.Workload.name seed r.detail
              (if r.Workload.output = native.Workload.output then "matches"
               else "DIFFERS")
          end;
          row := Rio.Stats.merge !row (Rio.stats rt))
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
        let plain, _ = Workload.run_rio w in
        let audited, _ =
          Workload.run_rio ~opts:{ Rio.Options.default with audit_period = 1 } w
        in
        let ratio = float_of_int audited.cycles /. float_of_int plain.cycles in
        pr "%-9s %12d %12d %8.3f\n%!" w.Workload.name plain.cycles audited.cycles
          ratio;
        ratio)
      wl
  in
  pr "%-9s %12s %12s %8.3f (geomean)\n" "mean" "" "" (geomean ratios);
  if !mismatches = 0 then
    pr "\nall %d injected runs terminated with output identical to native\n%!"
      (List.length wl * List.length seeds)
  else pr "\n!! %d runs diverged\n%!" !mismatches

let time_now = Sweep.time_now

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
  let native = Workload.run_native w in
  if not native.Workload.ok then failwith (w.Workload.name ^ ": native failed");
  let opts =
    { Rio.Options.default with
      cache_capacity = cap;
      flush_policy = policy;
      max_cycles = max_int / 2;
    }
  in
  let t0 = time_now () in
  let r, rt = Workload.run_rio ~opts w in
  let host_s = time_now () -. t0 in
  if not r.Workload.ok then
    failwith
      (Printf.sprintf "cachesweep: %s @ %s/%s diverged: %s" w.Workload.name
         policy_name
         (match cap with None -> "unbounded" | Some c -> string_of_int c)
         r.Workload.detail);
  let s = Rio.stats rt in
  {
    cs_bench = w.Workload.name;
    cs_policy = policy_name;
    cs_cap = cap;
    cs_ratio = float_of_int r.Workload.cycles /. float_of_int native.Workload.cycles;
    cs_mips = float_of_int native.Workload.insns /. host_s /. 1.0e6;
    cs_evictions = s.Rio.Stats.evictions;
    cs_flushes = s.Rio.Stats.cache_flushes;
    cs_dropped = s.Rio.Stats.traces_dropped;
    cs_fallbacks = s.Rio.Stats.full_flush_fallbacks;
  }

let cachesweep ~quick ~out_path () =
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
  Sweep.write_json ~path:out_path
    (Obj
       [ ("schema", Str "rio-cachesweep-v1");
         ("quick", Bool quick);
         ("fifo_full_flushes", Int fifo_flushes);
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
       ]);
  if fifo_flushes > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Opt sweep: the trace-optimizer evaluation (DESIGN.md §6.4)         *)
(* ------------------------------------------------------------------ *)

(* How much simulated time do the in-core -O passes recover?  Every
   run's output is checked against native (with and without fault
   injection); -O0 must reproduce the plain-RIO cycle counts exactly;
   and a bounded-FIFO configuration with a low re-optimization
   threshold must exercise the decode/replace path without ever falling
   back to a full flush. *)

type os_row = {
  os_bench : string;
  os_level : int;
  os_cycles : int;
  os_ratio : float;          (* simulated cycles / native cycles *)
  os_removed : int;          (* instructions removed by the optimizer *)
}

let optsweep_run (w : Workload.t) ~label ~opts : Workload.run_result * Rio.t =
  let native = Workload.run_native w in
  if not native.Workload.ok then failwith (w.Workload.name ^ ": native failed");
  let r, rt = Workload.run_rio ~opts w in
  if (not r.Workload.ok) || r.Workload.output <> native.Workload.output then
    failwith
      (Printf.sprintf "optsweep: %s @ %s diverged from native: %s"
         w.Workload.name label r.Workload.detail);
  (r, rt)

let optsweep ~quick ~bundle_path ~out_path () =
  let wl =
    if quick then
      List.filter_map Suite.by_name
        [ "gzip"; "gcc"; "crafty"; "perlbmk"; "swim"; "mgrid"; "art" ]
    else Suite.all
  in
  let levels = [ 0; 1; 2 ] in
  pr "\n=== Opt sweep: -O levels x workloads (%s mode) ===\n"
    (if quick then "quick" else "full");
  pr "(%d workloads; every run's output checked against native)\n"
    (List.length wl);
  pr "%-9s %5s" "bench" "";
  List.iter (fun l -> pr " %9s" (Printf.sprintf "-O%d" l)) levels;
  pr " %9s\n" "O2/O0";
  let rows = ref [] in
  let o0_by_bench = Hashtbl.create 32 in
  List.iter
    (fun w ->
      let native = Workload.run_native w in
      let per_level =
        List.map
          (fun level ->
            let opts =
              { Rio.Options.default with opt_level = level;
                max_cycles = max_int / 2 }
            in
            let r, rt =
              optsweep_run w ~label:(Printf.sprintf "-O%d" level) ~opts
            in
            let row =
              {
                os_bench = w.Workload.name;
                os_level = level;
                os_cycles = r.Workload.cycles;
                os_ratio =
                  float_of_int r.Workload.cycles
                  /. float_of_int native.Workload.cycles;
                os_removed = (Rio.stats rt).Rio.Stats.opt_insns_removed;
              }
            in
            if level = 0 then
              Hashtbl.replace o0_by_bench w.Workload.name r.Workload.cycles;
            rows := row :: !rows;
            row)
          levels
      in
      pr "%-9s %5s" w.Workload.name (if w.Workload.fp then "fp" else "int");
      List.iter (fun r -> pr " %9.3f" r.os_ratio) per_level;
      let o0 = (List.hd per_level).os_cycles
      and o2 = (List.nth per_level 2).os_cycles in
      pr " %9.3f\n%!" (float_of_int o2 /. float_of_int o0))
    wl;
  let rows = List.rev !rows in
  let level_rows l = List.filter (fun r -> r.os_level = l) rows in
  pr "%-9s %5s" "geomean" "";
  List.iter
    (fun l -> pr " %9.3f" (geomean (List.map (fun r -> r.os_ratio) (level_rows l))))
    levels;
  let o2_vs_o0 =
    geomean
      (List.map
         (fun (r : os_row) ->
           float_of_int r.os_cycles
           /. float_of_int (Hashtbl.find o0_by_bench r.os_bench))
         (level_rows 2))
  in
  pr " %9.3f\n" o2_vs_o0;
  let reduction_pct = (1.0 -. o2_vs_o0) *. 100.0 in
  pr "-O2 removes %.1f%% of simulated app cycles (geomean vs -O0)\n%!"
    reduction_pct;

  (* -O0 must reproduce the plain-RIO golden cycle counts exactly *)
  let o0_drift = ref 0 in
  List.iter
    (fun w ->
      let plain, _ =
        Workload.run_rio
          ~opts:{ Rio.Options.default with max_cycles = max_int / 2 } w
      in
      let o0 = Hashtbl.find o0_by_bench w.Workload.name in
      if plain.Workload.cycles <> o0 then begin
        incr o0_drift;
        pr "!! %s: -O0 cycles %d differ from plain RIO %d\n%!" w.Workload.name
          o0 plain.Workload.cycles
      end)
    wl;
  if !o0_drift = 0 then pr "-O0 cycle counts identical to plain RIO on every workload\n%!";

  (* the same levels under deterministic fault injection *)
  pr "\n-- fault-injection variants (seed %d, audit every dispatch):\n"
    Rio.Options.default_faults.Rio.Options.fi_seed;
  List.iter
    (fun level ->
      List.iter
        (fun w ->
          let opts =
            { Rio.Options.default with
              opt_level = level;
              faults = Some Rio.Options.default_faults;
              audit_period = 1;
              max_cycles = max_int / 2 }
          in
          ignore (optsweep_run w ~label:(Printf.sprintf "-O%d+faults" level) ~opts))
        wl;
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
      let _, rt = optsweep_run w ~label:"-O2+reopt" ~opts in
      let s = Rio.stats rt in
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
  let bundle_viol = ref 0 in
  (match bundle_path with
   | None ->
       pr "\n-- no tuned bundle found (pass --bundle FILE); skipping the \
           never-worse-than--O0 check\n%!"
   | Some path -> (
       match Rio.Bundle.load path with
       | Error e ->
           pr "!! bundle %s failed to load: %s\n%!" path
             (Rio.Bundle.error_to_string e);
           exit 1
       | Ok b ->
           pr "\n-- tuned bundle %s (digest %08x): per-bench \
               never-worse-than--O0 check:\n"
             path (Rio.Bundle.digest b);
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
               let rt, _ =
                 optsweep_run w
                   ~label:(Printf.sprintf "bundle(-O%d)"
                             tuned.Rio.Options.opt_level)
                   ~opts:tuned
               in
               let r0, _ = optsweep_run w ~label:"bundle(-O0)" ~opts:o0 in
               let worse = rt.Workload.cycles > r0.Workload.cycles in
               if worse then incr bundle_viol;
               bundle_rows :=
                 (name, tuned.Rio.Options.opt_level, rt.Workload.cycles,
                  r0.Workload.cycles)
                 :: !bundle_rows;
               pr "   %-9s -O%d %9d vs -O0 %9d  %s\n%!" name
                 tuned.Rio.Options.opt_level rt.Workload.cycles
                 r0.Workload.cycles
                 (if worse then "!! WORSE" else "ok"))
             wl;
           if !bundle_viol = 0 then
             pr "   bundle level is never worse than -O0 on any bench\n%!"));
  let bundle_rows = List.rev !bundle_rows in

  (* write the JSON datapoint *)
  let open Rio.Json in
  Sweep.write_json ~path:out_path
    (Obj
       [ ("schema", Str "rio-optsweep-v1");
         ("quick", Bool quick);
         ("o2_vs_o0_geomean_cycle_ratio", Float o2_vs_o0);
         ("o2_geomean_cycles_removed_pct", Float reduction_pct);
         ("o0_cycle_drift", Int !o0_drift);
         ("traces_reoptimized", Int !reopt_total);
         ("reopt_workloads", Int !reopt_benches);
         ("reopt_full_flush_fallbacks", Int !reopt_fallbacks);
         ("bundle_checked", Bool (bundle_path <> None));
         ("bundle_worse_than_o0", Int !bundle_viol);
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
                    [ ("bench", Str r.os_bench);
                      ("level", Int r.os_level);
                      ("sim_cycles", Int r.os_cycles);
                      ("cycle_ratio", Float r.os_ratio);
                      ("insns_removed", Int r.os_removed) ])
                rows) );
       ]);
  (* hard gates: -O0 byte-identical; re-opt exercised with no full-flush
     fallback; no single bench >2% worse than its own -O0 row; and
     (full mode) the >=5% geomean win *)
  if !o0_drift > 0 then exit 1;
  if !reopt_total = 0 || !reopt_fallbacks > 0 then exit 1;
  let regressions = ref 0 in
  List.iter
    (fun (r : os_row) ->
      let o0 = Hashtbl.find o0_by_bench r.os_bench in
      if float_of_int r.os_cycles > 1.02 *. float_of_int o0 then begin
        incr regressions;
        pr "!! %s: -O%d cycles %d regress >2%% vs -O0 %d\n%!" r.os_bench
          r.os_level r.os_cycles o0
      end)
    rows;
  if !regressions > 0 then exit 1;
  if !bundle_viol > 0 then begin
    pr "!! tuned bundle picks a level worse than -O0 on %d bench(es)\n%!"
      !bundle_viol;
    exit 1
  end;
  if (not quick) && reduction_pct < 5.0 then begin
    pr "!! -O2 geomean reduction %.2f%% below the 5%% target\n%!" reduction_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Spec sweep: the speculative tier evaluation (DESIGN.md §6.7)       *)
(* ------------------------------------------------------------------ *)

(* What does -O3 speculation buy over -O2, and does the guard
   machinery ever hurt?  Every run's output is checked against native;
   the -O3 geomean must beat the -O2 tier's recorded 0.930; no single
   bench may regress more than 2% against its own -O0 row; and at
   least one workload must exercise the full lifecycle — speculate,
   violate, deoptimize, re-optimize. *)

type ss_row = {
  ss_bench : string;
  ss_level : int;
  ss_cycles : int;
  ss_ratio : float;           (* simulated cycles / native cycles *)
  ss_guards : int;            (* guards compiled (ind + const) *)
  ss_violations : int;
  ss_despecs : int;
  ss_biases : int;            (* profile-biased final exits *)
}

let specsweep ~quick ~out_path () =
  let wl =
    if quick then
      List.filter_map Suite.by_name
        [ "gzip"; "gcc"; "crafty"; "eon"; "perlbmk"; "mesa"; "art" ]
    else Suite.all
  in
  let levels = [ 0; 2; 3 ] in
  pr "\n=== Spec sweep: speculative optimization (-O3) x workloads (%s mode) ===\n"
    (if quick then "quick" else "full");
  pr "(%d workloads; every run's output checked against native)\n"
    (List.length wl);
  pr "%-9s %5s" "bench" "";
  List.iter (fun l -> pr " %9s" (Printf.sprintf "-O%d" l)) levels;
  pr " %7s %6s %6s %6s\n" "O3/O0" "guards" "viols" "despec";
  let rows = ref [] in
  let o0_by_bench = Hashtbl.create 32 in
  List.iter
    (fun w ->
      let native = Workload.run_native w in
      let per_level =
        List.map
          (fun level ->
            let opts =
              { Rio.Options.default with opt_level = level;
                max_cycles = max_int / 2 }
            in
            let r, rt =
              optsweep_run w ~label:(Printf.sprintf "-O%d" level) ~opts
            in
            let s = Rio.stats rt in
            let row =
              {
                ss_bench = w.Workload.name;
                ss_level = level;
                ss_cycles = r.Workload.cycles;
                ss_ratio =
                  float_of_int r.Workload.cycles
                  /. float_of_int native.Workload.cycles;
                ss_guards =
                  s.Rio.Stats.spec_guards_ind + s.Rio.Stats.spec_guards_const;
                ss_violations = s.Rio.Stats.spec_violations;
                ss_despecs = s.Rio.Stats.spec_despecs;
                ss_biases = s.Rio.Stats.spec_exit_biases;
              }
            in
            if level = 0 then
              Hashtbl.replace o0_by_bench w.Workload.name r.Workload.cycles;
            rows := row :: !rows;
            row)
          levels
      in
      let o3 = List.nth per_level 2 in
      pr "%-9s %5s" w.Workload.name (if w.Workload.fp then "fp" else "int");
      List.iter (fun r -> pr " %9.3f" r.ss_ratio) per_level;
      pr " %7.3f %6d %6d %6d\n%!"
        (float_of_int o3.ss_cycles
        /. float_of_int (List.hd per_level).ss_cycles)
        o3.ss_guards o3.ss_violations o3.ss_despecs)
    wl;
  let rows = List.rev !rows in
  let level_rows l = List.filter (fun r -> r.ss_level = l) rows in
  let vs_o0 l =
    geomean
      (List.map
         (fun (r : ss_row) ->
           float_of_int r.ss_cycles
           /. float_of_int (Hashtbl.find o0_by_bench r.ss_bench))
         (level_rows l))
  in
  pr "%-9s %5s" "geomean" "";
  List.iter
    (fun l ->
      pr " %9.3f" (geomean (List.map (fun r -> r.ss_ratio) (level_rows l))))
    levels;
  let o2_vs_o0 = vs_o0 2 and o3_vs_o0 = vs_o0 3 in
  pr " %7.3f\n" o3_vs_o0;
  pr "-O3 vs -O0 geomean %.4f (tier target: beat -O2's recorded 0.930)\n%!"
    o3_vs_o0;
  (* the lifecycle witness: a bench whose -O3 run speculated, took
     guard violations, deoptimized, and re-speculated after the deopt
     (more guards compiled than assumptions retired) *)
  let lifecycle =
    List.find_opt
      (fun r ->
        r.ss_despecs >= 1 && r.ss_violations >= r.ss_despecs
        && r.ss_guards > r.ss_despecs)
      (level_rows 3)
  in
  (match lifecycle with
   | Some r ->
       pr "lifecycle witness: %s (%d guards, %d violations, %d despecs)\n%!"
         r.ss_bench r.ss_guards r.ss_violations r.ss_despecs
   | None -> pr "!! no workload exercised the full speculation lifecycle\n%!");
  (* per-bench 2%% gate against -O0 *)
  let regressions = ref 0 in
  List.iter
    (fun (r : ss_row) ->
      let o0 = Hashtbl.find o0_by_bench r.ss_bench in
      if float_of_int r.ss_cycles > 1.02 *. float_of_int o0 then begin
        incr regressions;
        pr "!! %s: -O%d cycles %d regress >2%% vs -O0 %d\n%!" r.ss_bench
          r.ss_level r.ss_cycles o0
      end)
    rows;
  if !regressions = 0 then
    pr "no bench regresses >2%% against its -O0 row at any level\n%!";
  (* write the JSON datapoint *)
  let open Rio.Json in
  Sweep.write_json ~path:out_path
    (Obj
       [ ("schema", Str "rio-specsweep-v1");
         ("quick", Bool quick);
         ("o3_vs_o0_geomean_cycle_ratio", Float o3_vs_o0);
         ("o2_vs_o0_geomean_cycle_ratio", Float o2_vs_o0);
         ( "lifecycle_bench",
           match lifecycle with Some r -> Str r.ss_bench | None -> Str "" );
         ( "rows",
           Arr
             (List.map
                (fun r ->
                  Obj
                    [ ("bench", Str r.ss_bench);
                      ("level", Int r.ss_level);
                      ("sim_cycles", Int r.ss_cycles);
                      ("cycle_ratio", Float r.ss_ratio);
                      ("guards", Int r.ss_guards);
                      ("violations", Int r.ss_violations);
                      ("despecs", Int r.ss_despecs);
                      ("exit_biases", Int r.ss_biases) ])
                rows) );
       ]);
  (* hard gates *)
  if !regressions > 0 then exit 1;
  if lifecycle = None then exit 1;
  if (not quick) && o3_vs_o0 >= 0.930 then begin
    pr "!! -O3 geomean %.4f does not beat the -O2 tier's 0.930\n%!" o3_vs_o0;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  table1x ();
  table2 ();
  figure1 ();
  figure2 ();
  figure4 ();
  figure5 ();
  ablation ();
  tracestats ();
  faultsweep ();
  micro ()

let () =
  match Array.to_list Sys.argv with
  | _ :: [] | [] -> all ()
  | _ :: "optsweep" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"optsweep" ~string_opts:[ "--bundle" ]
          ~default_out:"BENCH_opt.json" rest
      in
      let bundle_path =
        match List.assoc_opt "--bundle" cli.Sweep.extra with
        | Some p -> Some p (* explicit: a load failure is then fatal *)
        | None -> if Sys.file_exists "bundle.json" then Some "bundle.json"
                  else None
      in
      optsweep ~quick:cli.Sweep.quick ~bundle_path ~out_path:cli.Sweep.out_path
        ()
  | _ :: "specsweep" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"specsweep" ~default_out:"BENCH_spec.json" rest
      in
      specsweep ~quick:cli.Sweep.quick ~out_path:cli.Sweep.out_path ()
  | _ :: "cachesweep" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"cachesweep" ~default_out:"BENCH_cache.json" rest
      in
      cachesweep ~quick:cli.Sweep.quick ~out_path:cli.Sweep.out_path ()
  | _ :: "parsweep" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"parsweep" ~default_out:"BENCH_parallel.json" rest
      in
      Parsweep.run ~quick:cli.Sweep.quick ~out_path:cli.Sweep.out_path ()
  | _ :: "servesweep" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"servesweep" ~default_out:"BENCH_serve.json" rest
      in
      Servesweep.run ~quick:cli.Sweep.quick ~out_path:cli.Sweep.out_path ()
  | _ :: "chaossweep" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"chaossweep" ~default_out:"BENCH_chaos.json" rest
      in
      Chaossweep.run ~quick:cli.Sweep.quick ~out_path:cli.Sweep.out_path ()
  | _ :: "persistsweep" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"persistsweep" ~default_out:"BENCH_persist.json"
          rest
      in
      Persistsweep.run ~quick:cli.Sweep.quick ~out_path:cli.Sweep.out_path ()
  | _ :: "autotune" :: rest ->
      let cli =
        Sweep.parse_cli ~cmd:"autotune" ~string_opts:[ "--bundle-out" ]
          ~default_out:"BENCH_autotune.json" rest
      in
      let bundle_out =
        Option.value
          (List.assoc_opt "--bundle-out" cli.Sweep.extra)
          ~default:"bundle.json"
      in
      Autotune.run ~quick:cli.Sweep.quick ~out_path:cli.Sweep.out_path
        ~bundle_out ()
  | _ :: args ->
      List.iter
        (function
          | "table1" -> table1 ()
          | "table1x" -> table1x ()
          | "table2" -> table2 ()
          | "figure1" -> figure1 ()
          | "figure2" -> figure2 ()
          | "figure4" -> figure4 ()
          | "figure5" -> figure5 ()
          | "ablation" -> ablation ()
          | "tracestats" -> tracestats ()
          | "faultsweep" -> faultsweep ()
          | "micro" -> micro ()
          | "all" -> all ()
          | "--help" | "-h" ->
              print_endline
                "usage: main.exe [table1|table1x|table2|figure1|figure2|figure4|figure5|ablation|tracestats|faultsweep|micro|cachesweep [--quick] [--out f]|optsweep [--quick] [--out f]|specsweep [--quick] [--out f]|parsweep [--quick] [--out f]|servesweep [--quick] [--out f]|chaossweep [--quick] [--out f]|persistsweep [--quick] [--out f]|autotune [--quick] [--out f] [--bundle-out f]|all]"
          | a -> Printf.eprintf "unknown artifact %S\n" a)
        args

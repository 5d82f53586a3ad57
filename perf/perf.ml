(** perf: the end-to-end and per-layer benchmark of the runtime and the
    live server.  See perf/README.md for the workloads, the metrics and
    the layer -> metric -> workload map.

    {v
    perf.exe --workload cold --seed 1 --seconds 15 --trace 0
    perf.exe --workload serve --seed 3 --seconds 15 --trace 1
    perf.exe --quick --names-from BENCHMARK.json     (smoke: all workloads)
    v}

    The last line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}].  With [--trace 0]
    it carries the end-to-end metrics, with [--trace 1] the per-layer
    ones.  The exit status is non-zero when any operation failed, a
    simulated-cycle ratio changed between repeated rounds, or an
    end-to-end metric could not be measured. *)

open Measure

(* ------------------------------------------------------------------ *)
(* Metric tables                                                      *)
(* ------------------------------------------------------------------ *)

(* name, unit: every workload prints every one of these *)
let end_to_end =
  [ ("setup_s", "s"); ("mips", "MIPS"); ("rps", "1/s"); ("p50_ms", "ms");
    ("p99_ms", "ms"); ("sim_ratio", "ratio"); ("rss_mb", "MB") ]

(* Every host time here is measured on every workload; a count or a
   share of a layer the workload does not exercise reads 0. *)
let per_layer =
  [ (* counts per operation (program run or request) *)
    ("blockbuild.blocks", "count"); ("blockbuild.blocks_first_pass", "count");
    ("trace.traces", "count"); ("trace.head_promotions", "count");
    ("opt.traces", "count"); ("opt.insns_removed", "count");
    ("opt.reoptimized", "count"); ("opt.spec_guards", "count");
    ("opt.spec_violations", "count"); ("opt.spec_despecs", "count");
    ("emit.cache_kb", "KB"); ("link.direct_links", "count");
    ("link.unlinks", "count"); ("engine.runtime_cycles_share", "frac");
    ("engine.sim_cycles_per_req", "cycles");
    ("cachealloc.evictions", "count"); ("cachealloc.evicted_kb", "KB");
    ("cachealloc.compactions", "count"); ("cachealloc.moved_kb", "KB");
    ("cachealloc.traces_dropped", "count"); ("cachealloc.full_flushes", "count");
    ("ibl.lookups", "count"); ("ibl.miss_ratio", "frac");
    ("dispatch.context_switches", "count"); ("dispatch.trace_entry_share", "frac");
    ("pool.warm_hits", "count"); ("pool.cold_boots", "count");
    ("pool.batch_hits", "count"); ("pool.steals", "count"); ("pool.shed", "count");
    ("pool.prewarm_boots", "count"); ("persist.fragments_preloaded", "count");
    ("persist.refused", "count");
    (* host time *)
    ("vm.interp_ns_per_insn", "ns"); ("engine.run_ns_per_insn", "ns");
    ("engine.overhead_ns_per_insn", "ns"); ("engine.create_us", "us");
    ("vm.machine_create_us", "us"); ("asm.assemble_us", "us");
    ("asm.image_load_us", "us"); ("isa.decode_ns_per_insn", "ns");
    ("instr.encode_ns_per_insn", "ns"); ("opt.pass_ns_per_insn", "ns");
    ("wire.encode_us", "us"); ("wire.decode_us", "us");
    ("pool.service_ms_p50", "ms"); ("pool.service_ms_p99", "ms");
    ("pool.wait_ms_p50", "ms"); ("pool.wait_ms_p99", "ms");
    ("server.overhead_share", "frac"); ("persist.load_ms", "ms");
    ("persist.save_ms", "ms"); ("persist.image_kb", "KB");
    ("gen.late_sends", "count"); ("first_s", "s");
    ("trace_overhead_frac", "frac");
    (* where the operations' time went: each layer's share of the self
       time of the benchmark-side spans *)
    ("gen.self_share", "frac"); ("asm.self_share", "frac"); ("vm.self_share", "frac");
    ("engine.self_share", "frac"); ("server.self_share", "frac");
    ("wire.self_share", "frac") ]

(* ------------------------------------------------------------------ *)
(* Reporting and the command line                                     *)
(* ------------------------------------------------------------------ *)

let workloads = [ "cold"; "pressure"; "serve"; "restart" ]

let run_workload ~exe ~dir ~name ~seed ~seconds ~quick ~traced : outcome =
  Span.reset ();
  let o =
    match name with
    | "cold" -> Batch.run ~cfg:(Batch.cold_cfg ~quick) ~seed ~seconds ~traced ~dir
    | "pressure" -> Batch.run ~cfg:(Batch.pressure_cfg ~quick) ~seed ~seconds ~traced ~dir
    | "serve" -> Serving.serve ~exe ~dir ~seed ~seconds ~quick ~traced
    | "restart" -> Serving.restart ~exe ~dir ~seed ~seconds ~quick ~traced
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let self =
    let by_layer = Span.self_by_layer () in
    let total = float_of_int (List.fold_left (fun a (_, ns) -> a + ns) 0 by_layer) in
    List.map (fun (l, ns) -> (l ^ ".self_share", float_of_int ns /. total)) by_layer
  in
  (* per-layer host times are raw until here: scale them like the
     end-to-end ones *)
  let f = Calib.factor o.yardstick_ns in
  let scale (k, v) =
    match List.assoc_opt k per_layer with
    | Some ("ns" | "us" | "ms" | "s") -> (k, v *. f)
    | _ -> (k, v)
  in
  if traced then { o with layer = List.map scale (o.layer @ self) } else o

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print every metric of the table by name, then the result line.  A
   per-layer metric the workload did not produce reads 0; an end-to-end
   metric that is missing or not finite makes the run incorrect. *)
let report ~name ~traced (o : outcome) : bool =
  let table = if traced then per_layer else end_to_end in
  let values = if traced then o.layer else o.e2e in
  let measured k =
    match List.assoc_opt k values with Some v -> Float.is_finite v | None -> false
  in
  let value k = if measured k then List.assoc k values else 0.0 in
  let unmeasured = if traced then [] else List.filter (fun (k, _) -> not (measured k)) table in
  let error_rate = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  Printf.printf "== %s (%s) ==\n" name (if traced then "per-layer, traced" else "end-to-end");
  List.iter (fun (k, u) -> Printf.printf "  %-32s %14.6g %s\n" k (value k) u) table;
  Printf.printf "  %-32s %14.6g %s (%d of %d)\n" "error_rate" error_rate "frac" o.failed
    o.attempted;
  Printf.printf "  %-32s %14.6g ms (reference %.1f ms: host times scaled by about %.4f)\n"
    "yardstick" (o.yardstick_ns /. 1e6) (Calib.reference_ns /. 1e6)
    (Calib.factor o.yardstick_ns);
  if not o.consistent then
    Printf.printf "  !! simulated cycles differed between repeated rounds\n";
  List.iter (fun (k, _) -> Printf.printf "  !! %s was not measured\n" k) unmeasured;
  let correct = o.failed = 0 && o.consistent && unmeasured = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (k, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (json_float (value k)) u)
          table));
  correct

(* The metric names listed under "end_to_end" and "per_layer" in a
   BENCHMARK.json file. *)
let names_in_benchmark_json (path : string) : string list =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let find_from sub i =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let section key =
    match find_from ("\"" ^ key ^ "\"") 0 with
    | None -> failwith (path ^ ": no " ^ key)
    | Some i ->
        let lo = String.index_from s i '[' and hi = String.index_from s i ']' in
        let rec names i acc =
          match find_from "\"name\"" i with
          | Some j when j < hi ->
              let q0 = String.index_from s (String.index_from s j ':') '"' in
              let q1 = String.index_from s (q0 + 1) '"' in
              names q1 (String.sub s (q0 + 1) (q1 - q0 - 1) :: acc)
          | _ -> List.rev acc
        in
        names lo []
  in
  section "end_to_end" @ section "per_layer"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let quick = ref false and names_from = ref "" in
  let exe = ref "_build/default/bin/rio_serve.exe" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME cold|pressure|serve|restart (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (request seeds, arrival times, order)");
      ("--seconds", Arg.Set_float seconds, "S measurement time per run (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--quick", Arg.Set quick, " shrink every workload to a few seconds (smoke)");
      ("--names-from", Arg.Set_string names_from,
        "FILE fail unless every metric named in this BENCHMARK.json is printed");
      ("--server", Arg.Set_string exe, "PATH rio_serve executable") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]";
  let names = if !workload = "" then workloads else [ !workload ] in
  if List.exists (fun n -> not (List.mem n workloads)) names then begin
    Printf.eprintf "perf: unknown workload %S (one of %s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    Printf.eprintf "perf: --trace takes 0 or 1\n";
    exit 2
  end;
  let modes = if !quick && !workload = "" then [ false; true ] else [ !trace = 1 ] in
  let seconds = if !quick then 1.5 else !seconds in
  Child.install_guards ();
  let dir = Child.make_run_dir ~base:".perf" in
  let ok =
    List.for_all Fun.id
      (List.concat_map
         (fun name ->
           List.map
             (fun traced ->
               Child.arm ~secs:170;
               let o =
                 try
                   run_workload ~exe:!exe ~dir ~name ~seed:!seed ~seconds
                     ~quick:!quick ~traced
                 with e ->
                   Span.enabled := false;
                   Printf.eprintf "perf: %s: %s\n%!" name (Printexc.to_string e);
                   Child.cleanup ();
                   exit 1
               in
               if traced then begin
                 let path = Printf.sprintf ".perf/spans-%s.jsonl" name in
                 Span.write_jsonl path;
                 Printf.printf "  spans: %s\n" path
               end;
               report ~name ~traced o)
             modes)
         names)
  in
  let names_ok =
    !names_from = ""
    ||
    let known = List.map fst (end_to_end @ per_layer) in
    match List.filter (fun n -> not (List.mem n known)) (names_in_benchmark_json !names_from) with
    | [] -> true
    | missing ->
        Printf.printf "!! metrics named in %s but not printed: %s\n" !names_from
          (String.concat ", " missing);
        false
  in
  Child.cleanup ();
  exit (if ok && names_ok then 0 else 1)

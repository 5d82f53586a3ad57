(** Command-line driver: run a workload natively, emulated, or under
    the RIO runtime with any combination of clients and options.

    {v
    dune exec bin/rio_run.exe -- --list
    dune exec bin/rio_run.exe -- -w crafty
    dune exec bin/rio_run.exe -- -w mgrid -c rlr --stats
    dune exec bin/rio_run.exe -- -w vpr --mode native
    dune exec bin/rio_run.exe -- -w eon -c ibdispatch --family p3 --flow-log
    v} *)

open Cmdliner
open Workloads

type mode = Native | Emulate | Rio_mode

let client_of_name = function
  | "null" -> Rio.Types.null_client
  | "rlr" -> Clients.Rlr.make ()
  | "strength" -> Clients.Strength.make ~on_bb:false
  | "strength-bb" -> Clients.Strength.make ~on_bb:true
  | "ibdispatch" -> Clients.Ibdispatch.make ()
  | "ctraces" -> Stdlib.fst (Clients.Ctraces.make ())
  | "counter" -> Stdlib.fst (Clients.Counter.make ~dynamic:true ())
  | "edgeprof" -> Stdlib.fst (Clients.Edgeprof.make ())
  | "opmix" -> Stdlib.fst (Clients.Opmix.make ())
  | "redundant-cmp" -> Stdlib.fst (Clients.Redundant_cmp.make ())
  | "shepherd" -> failwith "shepherd needs an image policy; see examples/shepherding.ml"
  | "combined" -> Clients.Compose.all_four ()
  | n -> failwith ("unknown client: " ^ n)

let client_names =
  [ "null"; "rlr"; "strength"; "strength-bb"; "ibdispatch"; "ctraces";
    "counter"; "edgeprof"; "opmix"; "redundant-cmp"; "combined" ]

let run list workload_name file clients mode family engine faults fault_period
    audit stats flow_log dump_cache =
  if list then begin
    Printf.printf "workloads:\n";
    List.iter
      (fun w ->
        Printf.printf "  %-9s (%s, %s) %s\n" w.Workload.name w.Workload.spec_name
          (if w.Workload.fp then "fp" else "int")
          w.Workload.description)
      Suite.all;
    Printf.printf "clients: %s\n" (String.concat ", " client_names);
    0
  end
  else
    let chosen =
      match file with
      | Some path -> (
          (* run a textual assembly file instead of a built-in workload *)
          match Asm.Parse.program_of_file path with
          | prog ->
              Some
                (Workload.make ~name:(Filename.basename path) ~spec_name:"(file)"
                   ~fp:false ~description:"assembly file" prog)
          | exception Asm.Parse.Parse_error { line; msg } ->
              Printf.eprintf "%s:%d: %s\n" path line msg;
              exit 1)
      | None -> Suite.by_name workload_name
    in
    match chosen with
    | None ->
        Printf.eprintf "unknown workload %S (try --list)\n" workload_name;
        1
    | Some w -> (
        let family =
          match family with
          | "p3" -> Vm.Cost.Pentium3
          | "p4" -> Vm.Cost.Pentium4
          | f ->
              Printf.eprintf "unknown family %S (p3|p4)\n" f;
              exit 1
        in
        let native = Workload.run_native ~family w in
        match mode with
        | Native ->
            Printf.printf "%s: native: %d cycles, %d instructions, output [%s]\n"
              w.Workload.name native.cycles native.insns
              (String.concat "; " (List.map string_of_int native.output));
            if native.ok then 0 else 1
        | Emulate ->
            let r = Workload.run_native ~family ~emulate:true w in
            Printf.printf "%s: emulation: %d cycles (%.1fx native)\n" w.Workload.name
              r.cycles
              (float_of_int r.cycles /. float_of_int native.cycles);
            if r.ok then 0 else 1
        | Rio_mode ->
            let client =
              try
                match clients with
                | [] -> Rio.Types.null_client
                | [ c ] -> client_of_name c
                | cs -> Clients.Compose.compose (List.map client_of_name cs)
              with Failure msg ->
                Printf.eprintf "%s (try --list)\n" msg;
                exit 1
            in
            let fault_opts =
              match faults with
              | None -> None
              | Some seed ->
                  Some
                    { Rio.Options.default_faults with
                      fi_seed = seed;
                      fi_period = fault_period }
            in
            let opts =
              {
                (engine Rio.Options.default) with
                Rio.Options.faults = fault_opts;
                (* with injection on, audit every dispatch unless the
                   user chose a period explicitly *)
                audit_period =
                  (match (audit, faults) with
                  | Some n, _ -> n
                  | None, Some _ -> 1
                  | None, None -> 0);
                max_cycles = max_int / 2;
              }
            in
            (* reject bad capacities here, as a CLI error — not as a
               runtime failure halfway through emission *)
            (match Rio.Options.validate opts with
             | Ok () -> ()
             | Error msg ->
                 Printf.eprintf "invalid options: %s\n" msg;
                 exit 1);
            let image = Asm.Assemble.assemble w.Workload.program in
            let m = Vm.Machine.create ~family () in
            Vm.Machine.set_input m w.Workload.input;
            ignore (Asm.Image.load m image);
            let rt = Rio.create ~opts ~client m in
            if flow_log then Rio.enable_flow_log rt;
            let o = Rio.run rt in
            let out = Vm.Machine.output m in
            Printf.printf "%s under RIO (%s): %d cycles (%.3fx native), %s\n"
              w.Workload.name
              (match clients with [] -> "no client" | cs -> String.concat "+" cs)
              o.Rio.cycles
              (float_of_int o.Rio.cycles /. float_of_int native.cycles)
              (Rio.stop_reason_to_string o.Rio.reason);
            Printf.printf "output [%s] — %s native\n"
              (String.concat "; " (List.map string_of_int out))
              (if out = native.output then "matches" else "DIFFERS FROM");
            let co = Rio.Api.client_output rt in
            if co <> "" then Printf.printf "client output:\n%s" co;
            if stats then begin
              Rio.Emit.refresh_cache_gauges rt;
              Format.printf "%a@." (Rio.Stats.pp_report opts) (Rio.stats rt)
            end;
            if dump_cache then print_string (Rio.Api.dump_cache rt);
            if flow_log then begin
              Printf.printf "first 40 dispatch events:\n";
              List.iteri
                (fun k e -> if k < 40 then Printf.printf "  %s\n" e)
                (Rio.flow_log rt)
            end;
            if o.Rio.reason = Rio.All_exited && out = native.output then 0 else 1)

let cmd =
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List workloads and clients.")
  in
  let workload =
    Arg.(value & opt string "vpr" & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Workload to run (see --list).")
  in
  let file =
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE.s"
           ~doc:"Run a textual SynISA assembly file instead of a workload.")
  in
  let clients =
    Arg.(value & opt_all string [] & info [ "c"; "client" ] ~docv:"CLIENT"
           ~doc:"Client(s) to attach; repeat to compose.")
  in
  let mode =
    let m =
      Arg.enum [ ("native", Native); ("emulate", Emulate); ("rio", Rio_mode) ]
    in
    Arg.(value & opt m Rio_mode & info [ "mode" ] ~docv:"MODE"
           ~doc:"Execution mode: native, emulate, or rio.")
  in
  let family =
    Arg.(value & opt string "p4" & info [ "family" ] ~docv:"FAM"
           ~doc:"Processor family: p3 or p4.")
  in
  let faults =
    Arg.(value & opt (some int) None & info [ "faults" ] ~docv:"SEED"
           ~doc:"Enable deterministic fault injection with this seed.")
  in
  let fault_period =
    Arg.(value & opt int Rio.Options.default_faults.Rio.Options.fi_period
         & info [ "fault-period" ] ~docv:"N"
             ~doc:"Mean dispatches between injected faults.")
  in
  let audit =
    Arg.(value & opt (some int) None & info [ "audit" ] ~docv:"N"
           ~doc:"Audit the code cache every N context switches \
                 (defaults to 1 when --faults is on).")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print runtime statistics.") in
  let flow = Arg.(value & flag & info [ "flow-log" ] ~doc:"Print dispatch events.") in
  let dump =
    Arg.(value & flag & info [ "dump-cache" ]
           ~doc:"Disassemble every live fragment after the run.")
  in
  let term =
    Term.(
      const run $ list $ workload $ file $ clients $ mode $ family
      $ Rio.Cli.engine $ faults $ fault_period $ audit $ stats $ flow $ dump)
  in
  Cmd.v (Cmd.info "rio_run" ~doc:"Run workloads under the RIO dynamic optimizer") term

let () = exit (Cmd.eval' cmd)

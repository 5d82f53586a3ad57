(** Custom traces (paper §3.5 + §4.4): redirecting trace creation so
    procedure calls are inlined whole, and elided returns never touch
    the indirect-branch lookup.

    {v dune exec examples/custom_traces.exe v}

    Runs the vortex-like workload (call-dense database accessors) and
    compares default loop-oriented traces against call-inlining custom
    traces. *)

let () =
  let w = Option.get (Workloads.Suite.by_name "vortex") in
  let native = Workloads.Workload.run_native w in
  Printf.printf "vortex-like workload: %d simulated native cycles\n\n" native.cycles;

  let base, rt0 = Workloads.Workload.run_rio w in
  let s0 = Rio.stats rt0 in
  Printf.printf
    "default traces:  %8d cycles (%.3fx), %2d traces, %5d indirect lookups\n"
    base.cycles
    (float_of_int base.cycles /. float_of_int native.cycles)
    s0.Rio.Stats.traces_built s0.Rio.Stats.ibl_lookups;

  let client, t = Clients.Ctraces.make () in
  let opt, rt = Workloads.Workload.run_rio ~client w in
  assert (opt.output = native.output);
  let s = Rio.stats rt in
  Printf.printf
    "custom traces:   %8d cycles (%.3fx), %2d traces, %5d indirect lookups\n\n"
    opt.cycles
    (float_of_int opt.cycles /. float_of_int native.cycles)
    s.Rio.Stats.traces_built s.Rio.Stats.ibl_lookups;
  Printf.printf "call sites marked as trace heads: %d\n"
    (Clients.Ctraces.heads_marked t);
  Printf.printf "returns removed under the calling-convention assumption: %d\n"
    (Clients.Ctraces.returns_elided t);
  Printf.printf "%s" (Rio.Api.client_output rt)

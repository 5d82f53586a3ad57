(** Redundant load removal (paper §4.1).

    A classic compiler optimization applied dynamically to traces.
    IA-32's (and SynISA's) register scarcity makes compilers spill
    locals to the stack and reload them, often redundantly — even at
    [gcc -O3], and especially across basic-block boundaries, which a
    trace's linear view exposes.

    The analysis is the core load pass, {!Rio.Opt.remove_redundant_loads},
    with constant facts off: a single forward scan maintaining facts
    "register r currently holds the value of memory operand M":

    - [mov r, M] with a live fact [r' = M] → rewrite to [mov r, r']
      (or delete when [r = r']); likewise [fld f, M] → [fmov f, f'].
    - any memory write kills the facts it may alias: same-base/index
      operands are disjoint when displacement ranges cannot overlap;
      everything else conservatively aliases — including the word a
      push or call writes at [esp-4], which a slot off another base may
      be;
    - overwriting a register kills facts holding it or using it in an
      address — esp included, which push/pop/call/ret write implicitly,
      so every esp-based fact dies with them;
    - clean calls kill everything (the host may mutate state).

    Loads and moves touch no eflags, so rewrites are always flag-safe. *)

open Rio.Types

(** Decode the trace to Level 3, so no undecoded bundle hides a load,
    and run the load pass over it. *)
let optimize_il (c : Rio.Opt.counters) (il : Rio.Instrlist.t) =
  Rio.Instrlist.decode_to il Rio.Level.L3;
  Rio.Opt.remove_redundant_loads ~consts:false c il

(** Build a fresh client record.  All counters live in the closure, so
    instances on different worker domains never share state.  Only the
    trace hook is registered: like most client optimizations, RLR
    restricts itself to hot code (§3.3). *)
let make () : client =
  let c = Rio.Opt.fresh_counters () in
  {
    null_client with
    name = "rlr";
    init =
      (fun _ ->
        c.loads_removed <- 0;
        c.loads_rewritten <- 0);
    trace_hook = Some (fun _ctx ~tag:_ il -> optimize_il c il);
    exit_hook =
      (fun rt ->
        Rio.Api.printf rt "rlr: removed %d loads, rewrote %d to register moves\n"
          c.loads_removed c.loads_rewritten);
  }

module For_testing = struct
  let optimize_il = optimize_il
end

(** Deterministic, seeded fault injector (S34).

    Exercises the self-healing machinery by sabotaging the runtime at
    dispatcher safe points — never while any thread is inside the
    victim fragment, and always immediately followed by an audit pass
    (the dispatcher runs {!Audit.run} after every injection), so
    injected damage is detected and repaired before the cache is
    re-entered.  That discipline is what lets observational-equivalence
    tests pass {e under} injection: faults land, are found, and are
    healed without a corrupted byte ever executing.

    Four fault kinds, selectable via {!Options.fault_opts}:
    - {b corrupt}: flip one byte of a live fragment's cache image;
    - {b link}: re-patch a linked exit branch to a bogus target,
      without updating the link bookkeeping;
    - {b hook}: arm {!Types.runtime.fi_hook_pending} so the next client
      hook raises (inside {!Guard}'s barrier) after doing its work;
    - {b signal}: queue a pending signal whose handler address lies
      outside application space.

    All randomness comes from a private LCG on
    {!Types.runtime.fi_state}; candidate fragments and exits are sorted
    before selection so a (seed, workload, options) triple replays
    byte-identically. *)

open Types

(* the 48-bit LCG of java.util.Random: well-studied, fits in OCaml's
   63-bit int without overflow games *)
let state_mask = (1 lsl 48) - 1

let rand (rt : runtime) (n : int) : int =
  rt.fi_state <- ((rt.fi_state * 25214903917) + 11) land state_mask;
  if n <= 1 then 0 else (rt.fi_state lsr 16) mod n

(* A fragment is a safe corruption victim only if no preempted thread
   is currently executing inside it: the damage must be repairable at
   this safe point, before the bytes can run.  The pinning test is
   {!Types.thread_inside}, shared with capacity eviction. *)
let candidate_fragments (rt : runtime) : fragment list =
  List.filter (fun f -> not (thread_inside rt f)) (Audit.live_fragments rt)

(* ------------------------------------------------------------------ *)
(* The four fault kinds.  Each returns true if it found a victim.     *)
(* ------------------------------------------------------------------ *)

let inject_corrupt (rt : runtime) : bool =
  match candidate_fragments rt with
  | [] -> false
  | frags ->
      let f = List.nth frags (rand rt (List.length frags)) in
      let off = rand rt (f.total_end - f.entry) in
      let addr = f.entry + off in
      let mem = Vm.Machine.mem rt.machine in
      let old = Vm.Memory.read_u8 mem addr in
      (* xor with a nonzero mask: the byte always actually changes *)
      Vm.Memory.write_u8 mem addr (old lxor (1 + rand rt 255));
      Vm.Machine.invalidate_icache rt.machine ~addr ~len:1;
      rt.stats.Stats.faults_corrupt <- rt.stats.Stats.faults_corrupt + 1;
      log_flow rt "inject: corrupt byte at 0x%x (fragment 0x%x)" addr f.tag;
      true

(* Clients can replace an exit's stub with a custom IL (compare
   chains, profiling code); for those the recorded patch site may no
   longer hold a long-form branch, and {!Emit.patch_branch} would
   refuse it.  Both sides use {!Emit.patch_site_len}. *)
let exit_patchable (rt : runtime) (e : exit_) : bool =
  let pc = if e.always_through_stub then e.stub_jmp_pc else e.branch_pc in
  Emit.patch_site_len rt ~pc <> None

let inject_link_flip (rt : runtime) : bool =
  let linked_exits =
    List.concat_map
      (fun f ->
        Array.to_list f.exits
        |> List.filter (fun e -> e.linked <> None && exit_patchable rt e))
      (candidate_fragments rt)
    |> List.sort (fun a b -> compare a.exit_id b.exit_id)
  in
  match linked_exits with
  | [] -> false
  | exits ->
      let e = List.nth exits (rand rt (List.length exits)) in
      let tgt = match e.linked with Some t -> t | None -> assert false in
      (* mid-fragment target: decodable as a branch, but wrong — and the
         owner's checksum is deliberately left stale *)
      let bogus = tgt.entry + 1 + rand rt (max 1 (tgt.total_end - tgt.entry - 1)) in
      let pc = if e.always_through_stub then e.stub_jmp_pc else e.branch_pc in
      Emit.patch_branch rt ~pc ~target:bogus;
      rt.stats.Stats.faults_link <- rt.stats.Stats.faults_link + 1;
      log_flow rt "inject: exit %d branch flipped to 0x%x" e.exit_id bogus;
      true

let inject_hook_raise (rt : runtime) : bool =
  let c = rt.client in
  let has_hook =
    c.basic_block <> None || c.trace_hook <> None
    || c.fragment_deleted <> None || c.end_trace <> None
  in
  if rt.client_quarantined || rt.fi_hook_pending || not has_hook then false
  else begin
    rt.fi_hook_pending <- true;
    rt.stats.Stats.faults_hook <- rt.stats.Stats.faults_hook + 1;
    log_flow rt "inject: next client hook will raise";
    true
  end

let inject_spurious_signal (rt : runtime) (ts : thread_state) : bool =
  (* handler outside application space: delivery must refuse it *)
  let handler = cache_base + rand rt 0x1000 in
  ts.thread.Vm.Machine.pending_signals <-
    ts.thread.Vm.Machine.pending_signals @ [ handler ];
  rt.stats.Stats.faults_signal <- rt.stats.Stats.faults_signal + 1;
  log_flow rt "inject: spurious signal, handler 0x%x" handler;
  true

(* ------------------------------------------------------------------ *)
(* Pool-scope chaos injection (DESIGN.md §6.6)                        *)
(* ------------------------------------------------------------------ *)

(** Request-scope faults, injected by the serving pool around whole
    request attempts rather than by the dispatcher inside one engine.
    Where the S34 injector sabotages {e cache state} and expects the
    audit + recovery ladder to heal it, chaos sabotages the {e fleet}:
    it crashes requests mid-run, stalls workers, poisons warm
    instances, and storms client hooks, and expects the pool's
    exception barrier + retry ladder + quarantine to keep every request
    served and output-identical. *)
type chaos_kind =
  | Chaos_crash      (** raise {!Injected_crash} mid-request: the pool's
                         barrier turns it into a [Crashed] result *)
  | Chaos_stall      (** the worker sleeps, tripping a wall-clock deadline *)
  | Chaos_poison     (** flip a byte of the instance's application image
                         so the request diverges or faults *)
  | Chaos_hook_storm (** arm a hook-raise burst against the client *)

exception Injected_crash
(** The injected mid-request crash: an ordinary exception, which the
    pool's exception barrier absorbs and its retry ladder heals. *)

type chaos_opts = {
  ch_seed : int;
  ch_period : int;         (** mean requests between injections (>= 1) *)
  ch_crash : bool;
  ch_stall : bool;
  ch_poison : bool;
  ch_hook_storm : bool;
}

let default_chaos =
  {
    ch_seed = 1;
    ch_period = 4;
    ch_crash = true;
    ch_stall = true;
    ch_poison = true;
    ch_hook_storm = true;
  }

(** Per-attempt chaos state: a private LCG stream drawn from (seed,
    request id, attempt), so concurrent workers never race on injector
    state, and which attempt is stalled, poisoned or crashed does not
    depend on which worker serves it. *)
type chaos_state = { mutable cs_lcg : int; cs_opts : chaos_opts }

(* scramble a word, so neighbouring request ids start far-apart,
   uncorrelated streams (odd multipliers keep each step a bijection) *)
let mix x =
  let x = (x lxor (x lsr 29)) * 0x1ce4e5b9bf58476d in
  let x = (x lxor (x lsr 32)) * 0x133111eb94d049bb in
  x lxor (x lsr 29)

let chaos_make (opts : chaos_opts) ~req ~attempt : chaos_state =
  {
    cs_lcg = mix (mix (mix opts.ch_seed + req) + attempt) land state_mask;
    cs_opts = opts;
  }

let chaos_rand (cs : chaos_state) (n : int) : int =
  cs.cs_lcg <- ((cs.cs_lcg * 25214903917) + 11) land state_mask;
  if n <= 1 then 0 else (cs.cs_lcg lsr 16) mod n

(** Roll the chaos dice for one request attempt: [None] roughly
    [ch_period - 1] times out of [ch_period], otherwise one of the
    enabled fault kinds uniformly. *)
let chaos_tick (cs : chaos_state) : chaos_kind option =
  let o = cs.cs_opts in
  if chaos_rand cs (max 1 o.ch_period) <> 0 then None
  else
    let kinds =
      List.concat
        [
          (if o.ch_crash then [ Chaos_crash ] else []);
          (if o.ch_stall then [ Chaos_stall ] else []);
          (if o.ch_poison then [ Chaos_poison ] else []);
          (if o.ch_hook_storm then [ Chaos_hook_storm ] else []);
        ]
    in
    match kinds with
    | [] -> None
    | ks -> Some (List.nth ks (chaos_rand cs (List.length ks)))

(* ------------------------------------------------------------------ *)

(** Called by the dispatcher at each safe point.  Injects roughly once
    every [fi_period] calls; returns true when something was injected
    (the dispatcher then audits immediately). *)
let tick (rt : runtime) (ts : thread_state) : bool =
  match rt.opts.Options.faults with
  | None -> false
  | Some fo ->
      if rand rt (max 1 fo.Options.fi_period) <> 0 then false
      else begin
        let kinds =
          List.concat
            [
              (if fo.Options.fi_corrupt then [ `Corrupt ] else []);
              (if fo.Options.fi_links then [ `Link ] else []);
              (if fo.Options.fi_hooks then [ `Hook ] else []);
              (if fo.Options.fi_signals then [ `Signal ] else []);
            ]
        in
        match kinds with
        | [] -> false
        | _ ->
            (* try each enabled kind starting at a random one until a
               victim is found *)
            let n = List.length kinds in
            let start = rand rt n in
            let try_kind = function
              | `Corrupt -> inject_corrupt rt
              | `Link -> inject_link_flip rt
              | `Hook -> inject_hook_raise rt
              | `Signal -> inject_spurious_signal rt ts
            in
            let rec go k =
              if k >= n then false
              else if try_kind (List.nth kinds ((start + k) mod n)) then true
              else go (k + 1)
            in
            let injected = go 0 in
            if injected then
              rt.stats.Stats.faults_injected <- rt.stats.Stats.faults_injected + 1;
            injected
      end

module For_testing = struct
  let exit_patchable = exit_patchable
  let inject_link_flip = inject_link_flip
end

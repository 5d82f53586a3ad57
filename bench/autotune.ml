(** Autotune: end-to-end configuration-bundle search (DESIGN.md §6.9),
    written to BENCH_autotune.json plus a winning bundle.json.

    The system's tunable surface — opt level, trace/reopt/speculation
    thresholds, cache capacity, pool sizing and sharding — is searched
    as one {!Rio.Bundle.t} against an end-to-end objective, not knob by
    knob against micro-metrics.  Each candidate bundle boots a real
    serving pool, serves the same request mix every other candidate
    sees, and is scored by the geomean over workloads of mean simulated
    cycles per request (the paper's time metric, reproducible by
    [rio_serve --bundle]); makespan and host wall-clock ride along as
    secondary columns.

    Search: coordinate descent over a typed knob space (each knob
    enumerates its candidate settings; a sweep tries every off-current
    setting of every knob and moves to strict improvements), wrapped in
    a seeded random-restart ladder so the descent is not hostage to the
    default basin.  Identical bundles are memoized by digest — revisits
    are free.  After the global descent, a per-workload override pass
    picks each workload's opt level per-coordinate (levels are
    separable across workloads) from end-to-end level-sheet trials,
    constrained by a deterministic single-engine never-worse-than--O0
    guard — the same invariant the optsweep gate replays against the
    shipped bundle.

    Every trial is recorded as a first-class outcome, including the
    failures: [invalid] (the bundle was refused by validation — the
    search is allowed to propose these, e.g. a reopt threshold while
    descending through -O0), [diverged] (served output mismatched the
    native reference), and [failed] (harness-level refusal).  Hard
    gates: zero diverged/failed trials, the tuned bundle never worse
    than the defaults, and (full mode) a >= 3% geomean win. *)

open Workloads

let pr fmt = Printf.printf fmt

let opts (b : Rio.Bundle.t) = b.Rio.Bundle.b_opts
let pool_cfg (b : Rio.Bundle.t) = b.Rio.Bundle.b_pool
let set_opts (b : Rio.Bundle.t) o = { b with Rio.Bundle.b_opts = o }

(* ------------------------------------------------------------------ *)
(* Knob space                                                         *)
(* ------------------------------------------------------------------ *)

(** One searchable dimension: an engine-table row name, its candidate
    settings in the row's text form (so the trial log and the JSON
    speak the same language), and the row's text get/set lifted to a
    bundle.  Setting a knob may produce an invalid bundle — validation
    happens at trial time and the refusal is recorded, not raised. *)
type knob = {
  k_name : string;
  k_values : string list;
  k_get : Rio.Bundle.t -> string;
  k_set : Rio.Bundle.t -> string -> Rio.Bundle.t;
}

let knob (name, values) =
  let get, set = Rio.Options.text_access Rio.Options.engine_table name in
  {
    k_name = name;
    k_values = values;
    k_get = (fun b -> get (opts b));
    k_set = (fun b v -> set_opts b (set (opts b) v));
  }

(** The searched surface.  Quick mode trims values (CI budget), full
    mode searches the lot.  Deliberately excluded: the cost model
    (that would tune the simulator, not the system), fault injection,
    deadlines/retries/quarantine (supervision policy, not throughput),
    [max_cycles], and the pool sizing knobs (domains, in-flight and
    admission bounds) — the objective is simulated cycles per request,
    which scheduling cannot change, only smear with noise; pool sizing
    stays a deployment choice carried by the bundle's pool block. *)
let knob_space ~quick : knob list =
  let pick q full = if quick then q else full in
  List.map knob
    ([
       ("opt_level", [ "0"; "1"; "2"; "3" ]);
       ("trace_threshold", pick [ "25"; "50" ] [ "25"; "50"; "100" ]);
       ("reopt_threshold", pick [ "none"; "2" ] [ "none"; "2"; "8" ]);
       ("spec_threshold", pick [ "4"; "8" ] [ "4"; "8"; "16" ]);
     ]
    @ pick []
        [
          ("max_trace_blocks", [ "8"; "16"; "32" ]);
          ("spec_max_violations", [ "1"; "3"; "8" ]);
          ("cache_capacity", [ "none"; "16384"; "65536" ]);
          ("quantum", [ "50000"; "100000"; "200000" ]);
        ])

(* ------------------------------------------------------------------ *)
(* Trial measurement                                                  *)
(* ------------------------------------------------------------------ *)

type measurement = {
  m_objective : float;  (* geomean over workloads of mean cycles/request *)
  m_per_wl : (string * float) list;
  m_makespan : int;     (* max per-worker busy simulated cycles *)
  m_host_s : float;
  m_warm_hits : int;
  m_cold_boots : int;
}

(** First-class trial outcomes (the Demarch failure-signal pattern):
    refusals and divergences are data, not crashes. *)
type outcome =
  | Trial_ok of measurement
  | Trial_invalid of string       (* bundle refused by validation *)
  | Trial_divergent of int * float  (* served requests that did not match native *)
  | Trial_failed of string        (* harness-level failure *)

type trial = {
  t_id : int;
  t_phase : string;
  t_desc : string;     (* which move produced this bundle, e.g. "opt_level=3" *)
  t_digest : string;
  t_outcome : outcome;
}

let outcome_kind = function
  | Trial_ok _ -> "ok"
  | Trial_invalid _ -> "invalid"
  | Trial_divergent _ -> "diverged"
  | Trial_failed _ -> "failed"

let outcome_str = function
  | Trial_ok m ->
      Printf.sprintf "obj %.0f cyc/req  (host %.2fs, warm %d/cold %d)"
        m.m_objective m.m_host_s m.m_warm_hits m.m_cold_boots
  | Trial_invalid e -> "INVALID: " ^ e
  | Trial_divergent (n, _) -> Printf.sprintf "DIVERGED: %d request(s)" n
  | Trial_failed e -> "FAILED: " ^ e

(** Score one candidate end-to-end: validate, boot a pool with the
    bundle's pool block and per-workload override options, serve the
    shared request mix, and aggregate.  Any output mismatch makes the
    whole trial [Trial_divergent].

    The measurement pool runs on ONE domain regardless of the bundle's
    [domains]: the objective is simulated cycles, which worker count
    cannot change — but on several domains, which worker claims which
    request makes each key's warm/cold request pattern
    scheduling-dependent, which would smear every per-workload number
    by up to tens of percent between identical trials.  Serialized,
    the whole sweep is deterministic and the shipped numbers are reproducible; [rio_serve --bundle]
    then serves the same bundle at its full domain count and must
    agree within scheduling noise. *)
let measure ~wls ~mk ~reqs_per_wl (b : Rio.Bundle.t) : outcome =
  match Rio.Bundle.validate b with
  | Error e -> Trial_invalid (Rio.Bundle.error_to_string e)
  | Ok () -> (
      let t0 = Unix.gettimeofday () in
      match
        let boots =
          Sweep.pool_boots ~opts:(opts b) ~opts_for:(Rio.Bundle.opts_for b) wls
        in
        let cfg = { (pool_cfg b) with Rio.Options.domains = 1 } in
        let pool = Rio.Pool.create ~cfg ~boots () in
        let n = reqs_per_wl * List.length wls in
        List.iter (Sweep.submit_exn pool) (mk ~seed_base:4242 n);
        let results = Rio.Pool.drain pool in
        let snap = Rio.Pool.stats pool in
        Rio.Pool.shutdown pool;
        (results, snap)
      with
      | exception e -> Trial_failed (Printexc.to_string e)
      | results, snap ->
          let host_s = Unix.gettimeofday () -. t0 in
          let diverged =
            List.length
              (List.filter (fun r -> not r.Rio.Pool.res_ok) results)
          in
          if diverged > 0 then Trial_divergent (diverged, host_s)
          else
            let per_wl =
              List.map
                (fun (w : Workload.t) ->
                  let name = w.Workload.name in
                  let cs =
                    List.filter_map
                      (fun r ->
                        if r.Rio.Pool.res_key = name then
                          Some (float_of_int r.Rio.Pool.res_cycles)
                        else None)
                      results
                  in
                  ( name,
                    List.fold_left ( +. ) 0.0 cs
                    /. float_of_int (List.length cs) ))
                wls
            in
            Trial_ok
              {
                m_objective = Sweep.geomean (List.map snd per_wl);
                m_per_wl = per_wl;
                m_makespan =
                  Array.fold_left max 0 snap.Rio.Pool.snap_busy_cycles;
                m_host_s = host_s;
                m_warm_hits = snap.Rio.Pool.snap_warm_hits;
                m_cold_boots = snap.Rio.Pool.snap_cold_boots;
              })

(* ------------------------------------------------------------------ *)
(* Search                                                             *)
(* ------------------------------------------------------------------ *)

(* Accept a move only if it wins by more than pool-scheduling noise;
   cycle effects worth shipping (opt levels, trace shape) are 1-10%. *)
let min_gain = 0.998

let descend ~score ~knobs ~phase start start_m =
  let best = ref start and best_m = ref start_m in
  let improved = ref true in
  let sweep = ref 0 in
  while !improved && !sweep < 3 do
    incr sweep;
    improved := false;
    List.iter
      (fun k ->
        List.iter
          (fun v ->
            if v <> k.k_get !best then
              let cand = k.k_set !best v in
              match
                score
                  ~phase:(Printf.sprintf "%s/sweep%d" phase !sweep)
                  ~desc:(k.k_name ^ "=" ^ v) cand
              with
              | Trial_ok m
                when m.m_objective < min_gain *. !best_m.m_objective ->
                  best := cand;
                  best_m := m;
                  improved := true
              | _ -> ())
          k.k_values)
      knobs
  done;
  (!best, !best_m)

(* Seeded ladder: restart 0 descends from the defaults, later rungs
   from a deterministic random corner of the knob space. *)
let lcg s = ((s * 25214903917) + 11) land 0xffff_ffff_ffff

let random_bundle ~knobs st base =
  List.fold_left
    (fun b k ->
      st := lcg !st;
      k.k_set b (List.nth k.k_values (!st mod List.length k.k_values)))
    base knobs

(* ------------------------------------------------------------------ *)
(* Per-workload override pass                                         *)
(* ------------------------------------------------------------------ *)

(** Opt levels are separable across workloads — one key's override
    cannot change another key's cycles — so each workload's level is
    picked per-coordinate from four end-to-end "level sheet" trials
    (the whole mix overridden to -O0/-O1/-O2/-O3), reading each
    workload's mean cycles out of each sheet.  A deterministic
    single-engine guard constrains the choice: a level whose
    single-engine cycles under the bundle's knobs are worse than the
    level-0 projection (or that diverges from native) is never
    picked — this is the same measurement the optsweep assertion
    replays against the shipped bundle, so the shipped bundle
    satisfies it by construction.  When the guard disqualifies the
    bundle's global level for some workload, that workload is
    overridden even if end-to-end scores are within noise. *)
let override_pass ~wls ~score (best : Rio.Bundle.t) best_m :
    Rio.Bundle.t * measurement =
  (* deterministic single-engine cycles at each level, memoized *)
  let se_memo = Hashtbl.create 64 in
  let se_cycles (w : Workload.t) lvl =
    match Hashtbl.find_opt se_memo (w.Workload.name, lvl) with
    | Some c -> c
    | None ->
        let probe =
          { best with Rio.Bundle.b_overrides = [ (w.Workload.name, lvl) ] }
        in
        let o = Rio.Bundle.opts_for probe w.Workload.name in
        let o = { o with Rio.Options.max_cycles = max_int / 2 } in
        let c =
          match Rio.Options.validate o with
          | Error _ -> None
          | Ok () ->
              let r = Sweep.run ~label:(Printf.sprintf "-O%d guard" lvl) ~opts:o w in
              if r.same then Some r.res.Workload.cycles else None
        in
        Hashtbl.replace se_memo (w.Workload.name, lvl) c;
        c
  in
  let guard_ok (w : Workload.t) lvl =
    lvl = 0
    ||
    match (se_cycles w lvl, se_cycles w 0) with
    | Some c, Some c0 -> c <= c0
    | _ -> false
  in
  (* end-to-end level sheet: the whole mix at each level *)
  let base_lvl = (opts best).Rio.Options.opt_level in
  let sheet =
    List.filter_map
      (fun lvl ->
        if lvl = base_lvl then Some (lvl, best_m.m_per_wl)
        else
          let all_over =
            {
              best with
              Rio.Bundle.b_overrides =
                List.map (fun (w : Workload.t) -> (w.Workload.name, lvl)) wls;
            }
          in
          match
            score ~phase:"override/sheet"
              ~desc:(Printf.sprintf "all=-O%d" lvl)
              all_over
          with
          | Trial_ok m -> Some (lvl, m.m_per_wl)
          | _ -> None)
      [ 0; 1; 2; 3 ]
  in
  let e2e name lvl =
    Option.bind (List.assoc_opt lvl sheet) (List.assoc_opt name)
  in
  let overrides =
    List.filter_map
      (fun (w : Workload.t) ->
        let name = w.Workload.name in
        let cands =
          List.filter_map
            (fun lvl ->
              if guard_ok w lvl then
                Option.map (fun c -> (lvl, c)) (e2e name lvl)
              else None)
            [ 0; 1; 2; 3 ]
        in
        let winner =
          List.fold_left
            (fun acc (lvl, c) ->
              match acc with
              | Some (_, bc) when bc <= c -> acc
              | _ -> Some (lvl, c))
            None cands
        in
        match winner with
        | None -> None
        | Some (lvl, c) ->
            let base_allowed = guard_ok w base_lvl in
            let keep_base =
              base_allowed
              &&
              match e2e name base_lvl with
              | Some bc -> lvl = base_lvl || c >= min_gain *. bc
              | None -> false
            in
            if keep_base then None
            else begin
              pr "  override %-9s -O%d -> -O%d (%.0f -> %.0f cyc/req%s)\n%!"
                name base_lvl lvl
                (Option.value (e2e name base_lvl) ~default:nan)
                c
                (if base_allowed then "" else "; guard: base level worse than -O0");
              Some (name, lvl)
            end)
      wls
  in
  if overrides = [] then begin
    pr "  no per-workload override beats the global level\n%!";
    (best, best_m)
  end
  else
    let final = { best with Rio.Bundle.b_overrides = overrides } in
    match score ~phase:"override" ~desc:"apply-overrides" final with
    | Trial_ok m -> (final, m)
    | o ->
        pr "  !! overridden bundle failed end-to-end (%s); keeping global\n%!"
          (outcome_str o);
        (best, best_m)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let run ({ Sweep.quick; _ } as cli) =
  let bundle_out =
    Option.value (List.assoc_opt "--bundle-out" cli.Sweep.flags)
      ~default:"bundle.json"
  in
  let wls =
    if quick then
      List.filter_map Suite.by_name
        [ "gzip"; "gcc"; "crafty"; "perlbmk"; "mesa"; "art" ]
    else Suite.all
  in
  let reqs_per_wl = if quick then 2 else 3 in
  let restarts = if quick then 1 else 3 in
  pr "\n=== Autotune: configuration-bundle search (%s mode) ===\n"
    (if quick then "quick" else "full");
  pr
    "(%d workloads x %d requests per trial; objective: geomean mean sim \
     cycles/request; every request output-checked against native)\n%!"
    (List.length wls) reqs_per_wl;
  let knobs = knob_space ~quick in
  let mk = Sweep.request_maker wls in
  let trials = ref [] in
  let memo : (int, outcome) Hashtbl.t = Hashtbl.create 64 in
  let memo_hits = ref 0 in
  let next_id = ref 0 in
  let score ~phase ~desc b =
    let dg = Rio.Bundle.digest b in
    match Hashtbl.find_opt memo dg with
    | Some o ->
        incr memo_hits;
        o
    | None ->
        let o = measure ~wls ~mk ~reqs_per_wl b in
        Hashtbl.replace memo dg o;
        incr next_id;
        trials :=
          {
            t_id = !next_id;
            t_phase = phase;
            t_desc = desc;
            t_digest = Printf.sprintf "%08x" dg;
            t_outcome = o;
          }
          :: !trials;
        pr "  %3d %-18s %-26s %s\n%!" !next_id phase desc (outcome_str o);
        o
  in
  let default_bundle =
    {
      Rio.Bundle.b_opts = Rio.Options.default;
      b_pool = Rio.Options.default_pool;
      b_overrides = [];
      b_provenance = Rio.Bundle.default_provenance;
    }
  in
  let default_m =
    match score ~phase:"baseline" ~desc:"defaults" default_bundle with
    | Trial_ok m -> m
    | o -> failwith ("the default bundle failed to measure: " ^ outcome_str o)
  in
  (* --- coordinate descent with a seeded random-restart ladder --- *)
  let global_best = ref default_bundle and global_best_m = ref default_m in
  let seed = ref 0x5eed in
  for r = 0 to restarts - 1 do
    let start, label =
      if r = 0 then (default_bundle, "from-defaults")
      else (random_bundle ~knobs seed default_bundle, "from-random")
    in
    let phase = Printf.sprintf "restart%d" r in
    pr "-- %s (%s)\n%!" phase label;
    match score ~phase ~desc:"start" start with
    | Trial_ok start_m ->
        let b, m = descend ~score ~knobs ~phase start start_m in
        if m.m_objective < !global_best_m.m_objective then begin
          global_best := b;
          global_best_m := m
        end
    | _ -> pr "  (start point unusable; rung skipped)\n%!"
  done;
  (* --- per-workload opt-level override pass --- *)
  pr "-- per-workload override pass (level sheet + single-engine guard)\n%!";
  let best, best_m = override_pass ~wls ~score !global_best !global_best_m in
  let improvement_pct =
    (1.0 -. (best_m.m_objective /. default_m.m_objective)) *. 100.0
  in
  (* --- report --- *)
  pr "\n%-9s %14s %14s %8s\n" "bench" "default" "tuned" "ratio";
  List.iter
    (fun (name, d) ->
      let t = List.assoc name best_m.m_per_wl in
      pr "%-9s %14.0f %14.0f %8.3f\n" name d t (t /. d))
    default_m.m_per_wl;
  pr "%-9s %14.0f %14.0f %8.3f\n" "geomean" default_m.m_objective
    best_m.m_objective
    (best_m.m_objective /. default_m.m_objective);
  pr "tuned bundle beats defaults by %.2f%% (objective: geomean mean sim \
      cycles/request)\n"
    improvement_pct;
  pr "makespan %d -> %d sim cycles; digest %08x\n%!" default_m.m_makespan
    best_m.m_makespan (Rio.Bundle.digest best);
  let trials = List.rev !trials in
  let count k =
    List.length (List.filter (fun t -> outcome_kind t.t_outcome = k) trials)
  in
  pr "%d trials (%d ok, %d invalid, %d diverged, %d failed), %d memo hits\n%!"
    (List.length trials) (count "ok") (count "invalid") (count "diverged")
    (count "failed") !memo_hits;
  (* --- ship the winner --- *)
  let stamp =
    let t = Unix.gmtime (Unix.gettimeofday ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
      t.Unix.tm_sec
  in
  let best =
    {
      best with
      Rio.Bundle.b_provenance =
        {
          Rio.Bundle.pv_created_by = "autotune";
          pv_created_at = stamp;
          pv_objective =
            Printf.sprintf
              "geomean mean sim cycles/request over %d workloads (%s mode)"
              (List.length wls)
              (if quick then "quick" else "full");
          pv_note =
            Printf.sprintf "%.0f vs default %.0f cycles/request (%.2f%% better)"
              best_m.m_objective default_m.m_objective improvement_pct;
        };
    }
  in
  (match Rio.Bundle.save bundle_out best with
  | Ok () -> pr "wrote %s\n%!" bundle_out
  | Error e ->
      failwith
        (Printf.sprintf "could not write %s: %s" bundle_out
           (Rio.Bundle.error_to_string e)));
  (* --- JSON datapoint --- *)
  let open Rio.Json in
  let knob_obj b =
    Obj
      (List.map (fun k -> (k.k_name, Str (k.k_get b))) knobs
      @ [
          ( "overrides",
            Obj
              (List.map
                 (fun (k, v) -> (k, Int v))
                 b.Rio.Bundle.b_overrides) );
        ])
  in
  ( [
      ("workloads", Int (List.length wls));
      ("requests_per_workload", Int reqs_per_wl);
      ("objective", Str "geomean_mean_sim_cycles_per_request");
      ("default_objective", Float default_m.m_objective);
      ("tuned_objective", Float best_m.m_objective);
      ("improvement_pct", Float improvement_pct);
      ("default_makespan", Int default_m.m_makespan);
      ("tuned_makespan", Int best_m.m_makespan);
      ("bundle_digest", Str (Printf.sprintf "%08x" (Rio.Bundle.digest best)));
      ("bundle_file", Str bundle_out);
      ("tuned_knobs", knob_obj best);
      ("trials_total", Int (List.length trials));
      ("trials_ok", Int (count "ok"));
      ("trials_invalid", Int (count "invalid"));
      ("trials_diverged", Int (count "diverged"));
      ("trials_failed", Int (count "failed"));
      ("memo_hits", Int !memo_hits);
      ( "per_workload",
        Arr
          (List.map
             (fun (name, d) ->
               let t = List.assoc name best_m.m_per_wl in
               Obj
                 [
                   ("bench", Str name);
                   ("default_cycles", Float d);
                   ("tuned_cycles", Float t);
                   ("ratio", Float (t /. d));
                 ])
             default_m.m_per_wl) );
      ( "trials",
        Arr
          (List.map
             (fun t ->
               Obj
                 [
                   ("id", Int t.t_id);
                   ("phase", Str t.t_phase);
                   ("move", Str t.t_desc);
                   ("digest", Str t.t_digest);
                   ("outcome", Str (outcome_kind t.t_outcome));
                   ( "objective",
                     match t.t_outcome with
                     | Trial_ok m -> Float m.m_objective
                     | _ -> Null );
                   ( "makespan",
                     match t.t_outcome with
                     | Trial_ok m -> Int m.m_makespan
                     | _ -> Null );
                   ( "host_s",
                     match t.t_outcome with
                     | Trial_ok m -> Float m.m_host_s
                     | Trial_divergent (_, s) -> Float s
                     | _ -> Null );
                   ( "detail",
                     match t.t_outcome with
                     | Trial_ok _ -> Null
                     | Trial_invalid e | Trial_failed e -> Str e
                     | Trial_divergent (n, _) ->
                         Str (Printf.sprintf "%d diverged" n) );
                 ])
             trials) );
    ],
    [
      Sweep.at_most "diverged trials" ~bound:0.0 (float_of_int (count "diverged"));
      Sweep.at_most "failed trials" ~bound:0.0 (float_of_int (count "failed"));
      Sweep.at_most "tuned objective (cycles/request) vs default"
        ~bound:default_m.m_objective best_m.m_objective;
    ]
    @
    if quick then []
    else
      [ Sweep.at_least "improvement over defaults (%)" ~bound:3.0 improvement_pct ]
  )

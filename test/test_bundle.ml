(** The configuration-bundle codec (DESIGN.md §6.9).

    A bundle is a real artifact: the autotuner emits one, CI archives
    it, and [rio_serve --bundle] boots from it — so the codec must
    round-trip every valid bundle exactly, keep its digest stable
    under field reordering (the digest names the *configuration*, not
    the byte layout), and reject malformed input with a typed error
    instead of a best-effort guess. *)

module B = Rio.Bundle
module O = Rio.Options
module J = Rio.Json

(* ------------------------------------------------------------------ *)
(* Generator: random valid bundles                                    *)
(* ------------------------------------------------------------------ *)

let gen_string =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9' ])
      (int_range 0 12))

let gen_opts : O.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* opt_level = int_range 0 3 in
  let* trace_threshold = int_range 1 500 in
  let* max_trace_blocks = int_range 2 32 in
  let* spec_threshold = int_range 1 64 in
  let* spec_max_violations = int_range 1 16 in
  let* quantum = int_range 1_000 500_000 in
  let* link_indirect = bool in
  let* always_save_flags = bool in
  let* flush_policy = oneofl [ O.Flush_fifo; O.Flush_full ] in
  let* reopt =
    if opt_level >= 1 then opt (int_range 1 16) else return None
  in
  let base =
    {
      O.default with
      opt_level;
      trace_threshold;
      max_trace_blocks;
      spec_threshold;
      spec_max_violations;
      quantum;
      link_indirect;
      always_save_flags;
      flush_policy;
      reopt_threshold = reopt;
    }
  in
  let* cap = opt (int_range 2 4) in
  let* ctx_cost = int_range 1 100 in
  return
    {
      base with
      O.cache_capacity = Option.map (fun k -> k * O.min_cache_capacity base) cap;
      costs = { base.O.costs with O.context_switch = ctx_cost };
    }

let gen_pool : O.pool_opts QCheck.Gen.t =
  let open QCheck.Gen in
  let* domains = int_range 1 4 in
  let* max_inflight = int_range 1 128 in
  let* retries = int_range 1 4 in
  let* quarantine_threshold = int_range 1 5 in
  let* accept_queue = int_range 1 256 in
  let* prewarm = bool in
  return
    {
      O.default_pool with
      domains;
      max_inflight;
      retries;
      quarantine_threshold;
      accept_queue;
      prewarm;
    }

let override_names = [ "art"; "gcc"; "gzip"; "parser" ]  (* sorted *)

let gen_overrides : (string * int) list QCheck.Gen.t =
  let open QCheck.Gen in
  let* picks =
    flatten_l
      (List.map
         (fun n ->
           let* keep = bool in
           let* lvl = int_range 0 3 in
           return (if keep then Some (n, lvl) else None))
         override_names)
  in
  return (List.filter_map Fun.id picks)

let gen_bundle : B.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* b_opts = gen_opts in
  let* b_pool = gen_pool in
  let* b_overrides = gen_overrides in
  let* created_by = gen_string in
  let* note = gen_string in
  return
    {
      B.b_opts;
      b_pool;
      b_overrides;
      b_provenance =
        { B.default_provenance with pv_created_by = created_by; pv_note = note };
    }

let bundle_arb =
  QCheck.make ~print:(fun b -> B.For_testing.to_string b) gen_bundle

(* ------------------------------------------------------------------ *)
(* Round trip                                                         *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"of_string (to_string b) = Ok b" bundle_arb
    (fun b ->
      QCheck.assume (B.validate b = Ok ());
      match B.For_testing.of_string (B.For_testing.to_string b) with
      | Ok b' ->
          if b' = b then true
          else QCheck.Test.fail_reportf "round trip changed the bundle"
      | Error e ->
          QCheck.Test.fail_reportf "round trip failed: %s" (B.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Digest stability across field reordering                           *)
(* ------------------------------------------------------------------ *)

(* Deterministic shuffle of every object's field order; array order is
   semantic (pass lists) and stays put. *)
let rec shuffle_json rand (j : J.t) : J.t =
  match j with
  | J.Obj kvs ->
      let tagged =
        List.map (fun kv -> (rand (), kv)) kvs
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      J.Obj (List.map (fun (_, (k, v)) -> (k, shuffle_json rand v)) tagged)
  | J.Arr xs -> J.Arr (List.map (shuffle_json rand) xs)
  | _ -> j

let lcg_rand seed =
  let s = ref (seed land 0x3fff_ffff) in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3fff_ffff;
    !s

let prop_digest_reorder =
  QCheck.Test.make ~count:100
    ~name:"digest and parse stable under field reordering"
    QCheck.(pair bundle_arb (make Gen.(int_bound 0xffff)))
    (fun (b, seed) ->
      QCheck.assume (B.validate b = Ok ());
      let reordered = shuffle_json (lcg_rand seed) (B.For_testing.to_json b) in
      match B.For_testing.of_json reordered with
      | Ok b' ->
          if b' <> b then
            QCheck.Test.fail_reportf "reordered parse changed the bundle"
          else if B.digest b' <> B.digest b then
            QCheck.Test.fail_reportf "digest moved: %08x vs %08x" (B.digest b')
              (B.digest b)
          else true
      | Error e ->
          QCheck.Test.fail_reportf "reordered parse failed: %s"
            (B.error_to_string e))

(* The digest names the configuration payload only: provenance edits
   (who tuned it, when, the note) must not move it. *)
let test_digest_ignores_provenance () =
  let b =
    { B.b_opts = O.default; b_pool = O.default_pool; b_overrides = [];
      b_provenance = B.default_provenance }
  in
  let b' =
    { b with
      B.b_provenance =
        { B.pv_created_by = "someone-else"; pv_created_at = "2199-01-01";
          pv_objective = "different"; pv_note = "edited after the fact" } }
  in
  Alcotest.(check bool) "digest unchanged" true (B.digest b = B.digest b')

(* ------------------------------------------------------------------ *)
(* Typed rejection                                                    *)
(* ------------------------------------------------------------------ *)

let err_kind = function
  | Ok _ -> "ok"
  | Error (B.Io_error _) -> "io"
  | Error (B.Parse_error _) -> "parse"
  | Error (B.Unknown_key k) -> "unknown:" ^ k
  | Error (B.Bad_value (f, _)) -> "bad:" ^ f
  | Error (B.Stale_version v) -> Printf.sprintf "stale:%d" v
  | Error (B.Invalid_bundle _) -> "invalid"

let check_reject name expected text =
  Alcotest.(check string) name expected (err_kind (B.For_testing.of_string text))

let test_rejections () =
  check_reject "unknown top-level key" "unknown:zzz"
    {|{"bundle_version": 1, "zzz": 3}|};
  check_reject "unknown engine key" "unknown:engine.warp_factor"
    {|{"bundle_version": 1, "engine": {"warp_factor": 9}}|};
  check_reject "unknown costs key" "unknown:engine.costs.telepathy"
    {|{"bundle_version": 1, "engine": {"costs": {"telepathy": 1}}}|};
  check_reject "stale version" "stale:3" {|{"bundle_version": 3}|};
  check_reject "missing version" "bad:bundle_version" {|{"engine": {}}|};
  check_reject "out-of-range opt level" "invalid"
    {|{"bundle_version": 1, "engine": {"opt_level": 9}}|};
  check_reject "negative trace threshold" "bad:engine.trace_threshold"
    {|{"bundle_version": 1, "engine": {"trace_threshold": -5}}|};
  check_reject "zero quantum" "bad:engine.quantum"
    {|{"bundle_version": 1, "engine": {"quantum": 0}}|};
  check_reject "out-of-range override" "bad:overrides.gzip"
    {|{"bundle_version": 1, "overrides": {"gzip": 7}}|};
  check_reject "non-integer override" "bad:overrides.gcc"
    {|{"bundle_version": 1, "overrides": {"gcc": "fast"}}|};
  check_reject "wrong field type" "bad:engine.quantum"
    {|{"bundle_version": 1, "engine": {"quantum": "often"}}|};
  check_reject "bad flush policy" "bad:engine.flush_policy"
    {|{"bundle_version": 1, "engine": {"flush_policy": "lru"}}|};
  check_reject "unknown pool key" "unknown:pool.turbo"
    {|{"bundle_version": 1, "pool": {"turbo": true}}|};
  check_reject "zero accept queue" "bad:pool.accept_queue"
    {|{"bundle_version": 1, "pool": {"accept_queue": 0}}|};
  check_reject "non-bool prewarm" "bad:pool.prewarm"
    {|{"bundle_version": 1, "pool": {"prewarm": 3}}|};
  (* retired pool knobs: a bundle that still sets one is refused by
     name rather than silently ignored *)
  List.iter
    (fun (key, value) ->
      check_reject ("retired pool key " ^ key) ("unknown:pool." ^ key)
        (Printf.sprintf {|{"bundle_version": 1, "pool": {"%s": %s}}|} key
           value))
    [
      ("queue_capacity", "16");
      ("affinity", "false");
      ("batch_window", "8");
      ("min_domains", "null");
      ("scale_up_depth", "4");
      ("scale_down_depth", "1");
      ("scale_hysteresis", "3");
    ];
  check_reject "duplicate key" "parse"
    {|{"bundle_version": 1, "bundle_version": 1}|};
  check_reject "trailing garbage" "parse" {|{"bundle_version": 1} x|};
  check_reject "digest mismatch" "bad:digest"
    {|{"bundle_version": 1, "digest": "00000000"}|};
  (* 1e400 parses to infinity, which would print as a non-number *)
  check_reject "infinite deadline" "bad:pool.deadline_secs"
    {|{"bundle_version":1,"pool":{"deadline_secs":1e400}}|};
  check_reject "negative fault period" "bad:engine.faults.period"
    {|{"bundle_version": 1, "engine": {"faults": {"period": 0}}}|};
  check_reject "deep nesting" "parse" (String.make 1_000_000 '[')

(* Every printed document is valid JSON: a non-finite float has no
   JSON spelling, so it prints as null. *)
let test_non_finite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%g prints as null" f) "null\n"
        (J.to_string (J.Float f)))
    [ nan; infinity; neg_infinity ]

(* A stored digest that matches is accepted; the written form always
   carries one that matches. *)
let test_digest_verified () =
  let b =
    { B.b_opts = { O.default with O.opt_level = 2 }; b_pool = O.default_pool;
      b_overrides = [ ("gcc", 0) ]; b_provenance = B.default_provenance }
  in
  (match B.For_testing.of_string (B.For_testing.to_string b) with
   | Ok b' -> Alcotest.(check bool) "accepted with own digest" true (b' = b)
   | Error e -> Alcotest.failf "rejected: %s" (B.error_to_string e));
  (* flip the embedded digest and it must be refused *)
  let replace sub by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i ->
        String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let tampered =
    replace (Printf.sprintf "%08x" (B.digest b)) "deadbeef" (B.For_testing.to_string b)
  in
  Alcotest.(check string) "tampered digest refused" "bad:digest"
    (err_kind (B.For_testing.of_string tampered))

(* ------------------------------------------------------------------ *)
(* Override projection                                                *)
(* ------------------------------------------------------------------ *)

let test_opts_for () =
  let base =
    { O.default with O.opt_level = 3; reopt_threshold = Some 4 }
  in
  let b =
    { B.b_opts = base; b_pool = O.default_pool;
      b_overrides = [ ("gcc", 0); ("gzip", 1) ];
      b_provenance = B.default_provenance }
  in
  Alcotest.(check bool) "bundle valid" true (B.validate b = Ok ());
  Alcotest.(check int) "no override -> base level" 3
    (B.opts_for b "art").O.opt_level;
  Alcotest.(check int) "gzip demoted" 1 (B.opts_for b "gzip").O.opt_level;
  let gcc = B.opts_for b "gcc" in
  Alcotest.(check int) "gcc off" 0 gcc.O.opt_level;
  (* the level-0 projection must drop level-gated knobs so it is a
     valid configuration on its own *)
  Alcotest.(check bool) "gcc projection valid" true
    (O.validate gcc = Ok ());
  Alcotest.(check bool) "reopt dropped at level 0" true
    (gcc.O.reopt_threshold = None)

(* ------------------------------------------------------------------ *)
(* The committed bundle                                               *)
(* ------------------------------------------------------------------ *)

(* The shipped artifact must keep verifying under the current codec,
   re-print byte for byte, and project the tuned per-workload levels. *)
let test_committed_bundle () =
  let text = In_channel.with_open_bin "../bundle.json" In_channel.input_all in
  match B.For_testing.of_string text with
  | Error e -> Alcotest.failf "bundle.json rejected: %s" (B.error_to_string e)
  | Ok b ->
      Alcotest.(check string) "digest" "e3c90437" (Printf.sprintf "%08x" (B.digest b));
      Alcotest.(check string) "re-prints byte for byte" text (B.For_testing.to_string b);
      List.iter
        (fun (w, lvl) ->
          Alcotest.(check int) ("opt level of " ^ w) lvl (B.opts_for b w).O.opt_level)
        [ ("gcc", 0); ("mcf", 0); ("gzip", 1); ("art", 3); ("crafty", 3); ("vpr", 3) ]

(* ------------------------------------------------------------------ *)
(* Knob-table completeness                                            *)
(* ------------------------------------------------------------------ *)

(* Non-default candidate values for a row, by type. *)
let candidates : type a. a O.ty -> a -> a list =
 fun ty d ->
  match ty with
  | O.Bool -> [ not d ]
  | O.Int -> [ d + 1; d - 1; d + 65536 ]
  | O.Float -> [ d +. 1.5 ]
  | O.Opt t -> (
      match d with
      | Some _ -> [ None ]
      | None -> (
          match t with
          | O.Int -> [ Some 1; Some 65536 ]
          | O.Float -> [ Some 1.5 ]
          | _ -> []))
  | O.Passes -> [ [ O.Copy_prop ]; [ O.Load_removal ] ]
  | O.Policy -> [ (if d = O.Flush_fifo then O.Flush_full else O.Flush_fifo) ]
  | O.Table _ -> []

let bundle_of opts pool =
  { B.b_opts = opts; b_pool = pool; b_overrides = []; b_provenance = B.default_provenance }

(* For every leaf, an in-range non-default value that yields a valid
   configuration must reach the record (get after set), move both
   digests, and survive the printed round trip; every leaf must write
   its own field; and the leaves must cover every record field. *)
let check_table (type r) name (tbl : r O.table) ~bases ~(bundle : r -> B.t)
    ~(record_moves : r -> r -> bool) =
  let leaves = O.For_testing.leaves tbl in
  List.iter
    (fun (O.Knob k) ->
      let row = name ^ "." ^ k.key in
      let valid r = B.validate (bundle r) = Ok () in
      let picks =
        List.concat_map
          (fun base ->
            List.filter_map
              (fun v ->
                let r = k.set base v in
                if k.range v = None && v <> k.get base && valid r then
                  Some (base, v, r)
                else None)
              (candidates k.ty (k.get base)))
          bases
      in
      match picks with
      | [] -> Alcotest.failf "%s: no valid non-default value to try" row
      | (base, v, r) :: _ ->
          Alcotest.(check bool) (row ^ ": get after set") true (k.get r = v);
          Alcotest.(check bool) (row ^ ": bundle digest moves") true
            (B.digest (bundle r) <> B.digest (bundle base));
          Alcotest.(check bool) (row ^ ": record digest moves") true
            (record_moves base r);
          Alcotest.(check bool) (row ^ ": printed round trip") true
            (B.For_testing.of_string (B.For_testing.to_string (bundle r)) = Ok (bundle r));
          (* no other row writes this row's field *)
          List.iter
            (fun (O.Knob j) ->
              if j.key <> k.key then
                match candidates j.ty (j.get r) with
                | w :: _ ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s survives setting %s" row j.key)
                      true
                      (k.get (j.set r w) = v)
                | [] -> ())
            leaves)
    leaves

let fields r = Obj.size (Obj.repr r)

let test_table_complete () =
  (* the two nested-table fields of Options.t are not leaves *)
  Alcotest.(check int) "one leaf per record field"
    (fields O.default - 2 + fields O.For_testing.default_costs + fields O.default_faults
    + fields O.default_pool)
    (List.length (O.For_testing.leaves O.engine_table) + List.length (O.For_testing.leaves O.pool_table));
  check_table "engine" O.engine_table
    ~bases:[ O.default; { O.default with O.opt_level = 3 } ]
    ~bundle:(fun o -> bundle_of o O.default_pool)
    ~record_moves:(fun a b -> O.digest a <> O.digest b);
  check_table "pool" O.pool_table ~bases:[ O.default_pool ]
    ~bundle:(fun p -> bundle_of O.default p)
    ~record_moves:( <> )

(* ------------------------------------------------------------------ *)
(* Derived CLI flags                                                  *)
(* ------------------------------------------------------------------ *)

(* A flag that is given overrides the base; one that is not leaves the
   base alone — the base here stands in for a --bundle file. *)
let test_pool_flags () =
  let base = { O.default_pool with O.domains = 4; retries = 1 } in
  let eval args =
    let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "t") Rio.Cli.pool in
    match Cmdliner.Cmd.eval_value ~argv:(Array.of_list ("t" :: args)) cmd with
    | Ok (`Ok overlay) -> overlay base
    | _ -> Alcotest.failf "flags %s did not parse" (String.concat " " args)
  in
  Alcotest.(check bool) "no flags: base unchanged" true (eval [] = base);
  Alcotest.(check bool) "-d 3: only domains" true
    (eval [ "-d"; "3" ] = { base with O.domains = 3 });
  Alcotest.(check bool) "--prewarm --deadline-secs" true
    (eval [ "--prewarm"; "--deadline-secs"; "0.5" ]
    = { base with O.prewarm = true; deadline_secs = Some 0.5 })

(* ------------------------------------------------------------------ *)
(* Parser fuzzing                                                     *)
(* ------------------------------------------------------------------ *)

(* Byte-level damage to a printed bundle: flip, insert, delete, or
   truncate, biased toward the characters JSON structure hangs on. *)
let gen_damaged : string QCheck.Gen.t =
  let open QCheck.Gen in
  let* b = gen_bundle in
  let* edits =
    list_size (int_range 1 6)
      (triple (int_range 0 3) nat
         (oneof
            [ char; oneofl [ '{'; '}'; '['; ']'; '"'; ','; ':'; '\\'; '-'; '0'; 'e'; 'n'; '.' ] ]))
  in
  let edit s (kind, at, c) =
    let n = String.length s in
    if n = 0 then String.make 1 c
    else
      let i = at mod n in
      match kind with
      | 0 -> String.mapi (fun j x -> if j = i then c else x) s
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | 2 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ -> String.sub s 0 i
  in
  return (List.fold_left edit (B.For_testing.to_string b) edits)

let prop_fuzz =
  QCheck.Test.make ~count:2000
    ~name:"damaged bundles parse or fail typed, and accepted ones re-print"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_damaged)
    (fun text ->
      match B.For_testing.of_string text with
      | exception e -> QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok b -> (
          match B.For_testing.of_string (B.For_testing.to_string b) with
          | Ok b' when b' = b -> true
          | _ -> QCheck.Test.fail_reportf "accepted bundle does not re-parse"))

let () =
  Alcotest.run "bundle"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_digest_reorder;
          QCheck_alcotest.to_alcotest prop_fuzz;
        ] );
      ( "directed",
        [
          Alcotest.test_case "digest ignores provenance" `Quick
            test_digest_ignores_provenance;
          Alcotest.test_case "typed rejection" `Quick test_rejections;
          Alcotest.test_case "embedded digest verified" `Quick
            test_digest_verified;
          Alcotest.test_case "override projection" `Quick test_opts_for;
          Alcotest.test_case "non-finite floats print as null" `Quick
            test_non_finite_floats;
          Alcotest.test_case "committed bundle.json" `Quick test_committed_bundle;
          Alcotest.test_case "knob table complete" `Quick test_table_complete;
          Alcotest.test_case "pool flags overlay their base" `Quick test_pool_flags;
        ] );
    ]

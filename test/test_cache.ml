(** The layered cache-management stack (DESIGN.md §6.3): the
    {!Rio.Cachealloc} free-list allocator in isolation, option
    validation at the boundary, incremental FIFO eviction end to end,
    exactly-once [fragment_deleted] hook accounting across every
    deletion path, and randomized native-equivalence under small
    capacities with both flush policies (with and without fault
    injection). *)

open Workloads

let wl name = Option.get (Suite.by_name name)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

module CA = Rio.Cachealloc

(* ------------------------------------------------------------------ *)
(* Cachealloc: unit tests                                              *)
(* ------------------------------------------------------------------ *)

let test_alloc_rounds_and_fits () =
  let a = CA.create ~base:0x1000 ~size:1024 () in
  checki "capacity" 1024 (CA.For_testing.capacity a);
  checki "one hole when empty" 1 (CA.holes a);
  (* 100 bytes rounds up to two 64-byte units *)
  checkb "first alloc at base" true (CA.alloc a 100 = Some 0x1000);
  checki "used" 128 (CA.For_testing.used_bytes a);
  checkb "second alloc follows" true (CA.alloc a 1 = Some 0x1080);
  checki "free accounting" (1024 - 128 - 64) (CA.free_bytes a);
  checkb "oversized alloc refused" true (CA.alloc a 2048 = None);
  checkb "exact-fit tail" true (CA.alloc a (1024 - 128 - 64) <> None);
  checkb "now full" true (CA.alloc a 1 = None);
  checki "no free bytes" 0 (CA.free_bytes a)

let test_free_coalesces () =
  let a = CA.create ~base:0 ~size:512 () in
  let addr n = Option.get (CA.alloc a n) in
  let a0 = addr 64 and a1 = addr 64 and a2 = addr 64 and a3 = addr 64 in
  ignore (addr 256);
  checki "full" 0 (CA.free_bytes a);
  (* free two non-adjacent runs: two holes *)
  checki "free returns bytes" 64 (CA.free a ~addr:a1);
  checki "free returns bytes" 64 (CA.free a ~addr:a3);
  checki "two holes" 2 (CA.holes a);
  checki "largest hole" 64 (CA.largest_free_bytes a);
  (* freeing between them merges all three into one run *)
  checki "free returns bytes" 64 (CA.free a ~addr:a2);
  checki "holes merged" 1 (CA.holes a);
  checki "largest hole" 192 (CA.largest_free_bytes a);
  ignore (CA.free a ~addr:a0);
  checki "prefix merged too" 1 (CA.holes a);
  checki "largest hole" 256 (CA.largest_free_bytes a);
  (* first-fit reuses the freed prefix *)
  checkb "first-fit reuse" true (CA.alloc a 64 = Some a0)

let test_free_rejects_bad_addresses () =
  let a = CA.create ~base:0x2000 ~size:256 () in
  let live = Option.get (CA.alloc a 64) in
  let raises addr =
    match CA.free a ~addr with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "below base" true (raises 0x1000);
  checkb "unallocated unit" true (raises (live + 64));
  checkb "misaligned" true (raises (live + 1));
  checki "live one still frees" 64 (CA.free a ~addr:live);
  checkb "double free" true (raises live)

let test_reset_forgets_everything () =
  let a = CA.create ~base:0 ~size:256 () in
  let x = Option.get (CA.alloc a 64) in
  ignore (CA.alloc a 64);
  CA.reset a;
  checki "all free" 256 (CA.free_bytes a);
  checki "one hole" 1 (CA.holes a);
  checkb "old allocation gone" true
    (match CA.free a ~addr:x with exception Invalid_argument _ -> true | _ -> false);
  checkb "region reusable" true (CA.alloc a 256 = Some 0)

(* Model check: random alloc/free traffic, verifying accounting and
   that live allocations never overlap. *)
let test_alloc_model =
  QCheck.Test.make ~count:300 ~name:"allocator accounting under random traffic"
    QCheck.(small_list (pair bool (int_range 1 200)))
    (fun ops ->
      let a = CA.create ~base:0x4000 ~size:1024 () in
      let live = ref [] in
      (* (addr, rounded bytes) *)
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || !live = [] then (
            match CA.alloc a n with
            | Some addr ->
                let rounded = (n + 63) / 64 * 64 in
                live := (addr, rounded) :: !live
            | None -> ())
          else
            let addr, bytes = List.hd !live in
            live := List.tl !live;
            if CA.free a ~addr <> bytes then failwith "free returned wrong size")
        ops;
      let used = List.fold_left (fun s (_, b) -> s + b) 0 !live in
      let no_overlap =
        List.for_all
          (fun (x, bx) ->
            List.for_all
              (fun (y, by) -> x = y || x + bx <= y || y + by <= x)
              !live)
          !live
      in
      CA.For_testing.used_bytes a = used
      && CA.free_bytes a = CA.For_testing.capacity a - used
      && CA.largest_free_bytes a <= CA.free_bytes a
      && no_overlap)

(* ------------------------------------------------------------------ *)
(* Options validation                                                  *)
(* ------------------------------------------------------------------ *)

let floor_cap = Rio.Options.(min_cache_capacity default)

let test_validate_capacities () =
  let with_cap ?(policy = Rio.Options.Flush_fifo) cap =
    Rio.Options.validate
      { Rio.Options.default with cache_capacity = cap; flush_policy = policy }
  in
  checkb "unbounded ok" true (with_cap None = Ok ());
  checkb "zero rejected" true (with_cap (Some 0) <> Ok ());
  checkb "negative rejected" true (with_cap (Some (-5)) <> Ok ());
  checkb "fifo below floor rejected" true (with_cap (Some (floor_cap - 1)) <> Ok ());
  checkb "fifo at floor ok" true (with_cap (Some floor_cap) = Ok ());
  checkb "full policy allows tiny caps" true
    (with_cap ~policy:Rio.Options.Flush_full (Some 256) = Ok ());
  checkb "full policy still rejects zero" true
    (with_cap ~policy:Rio.Options.Flush_full (Some 0) <> Ok ())

let test_create_rejects_bad_options () =
  let m = Vm.Machine.create () in
  checkb "Rio.create raises Invalid_options" true
    (match
       Rio.create
         ~opts:{ Rio.Options.default with cache_capacity = Some 64 }
         m
     with
    | exception Rio.Options.Invalid_options _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* FIFO eviction end to end                                            *)
(* ------------------------------------------------------------------ *)

let test_fifo_eviction_matches_native () =
  (* only gcc's low-reuse multi-phase footprint overflows these
     capacities; the other workloads verify the bounded path when the
     working set happens to fit *)
  List.iter
    (fun (name, cap, expect_evictions) ->
      let w = wl name in
      let native = Workload.run_native w in
      let r, rt =
        Workload.run_rio
          ~opts:{ Rio.Options.default with cache_capacity = Some cap }
          w
      in
      let s = Rio.stats rt in
      checkb (name ^ ": finished") true r.ok;
      check_ilist (name ^ ": output identical to native") native.output r.output;
      if expect_evictions then begin
        checkb (name ^ ": evictions occurred") true (s.Rio.Stats.evictions > 0);
        checkb (name ^ ": bytes reclaimed") true
          (s.Rio.Stats.evicted_bytes >= s.Rio.Stats.evictions)
      end;
      checki (name ^ ": zero full flushes") 0 s.Rio.Stats.cache_flushes)
    [
      ("gcc", 8192, true);
      ("gcc", 4096, true);
      ("crafty", 4096, false);
      ("eon", 4096, false);
      ("mgrid", 8192, false);
    ]

let test_unbounded_never_evicts () =
  let _, rt = Workload.run_rio (wl "gcc") in
  let s = Rio.stats rt in
  checki "no evictions" 0 s.Rio.Stats.evictions;
  checki "no flushes" 0 s.Rio.Stats.cache_flushes;
  checki "no dropped traces" 0 s.Rio.Stats.traces_dropped

(* ------------------------------------------------------------------ *)
(* fragment_deleted fires exactly once per deletion                    *)
(* ------------------------------------------------------------------ *)

(* Every path that retires a fragment — FIFO eviction, full flush,
   client-driven replacement, fault recovery — must fire the
   [fragment_deleted] hook exactly once for it.  Deletions and
   replacements are counted separately in the stats, so the hook count
   must equal their sum; a double fire or a missed fire breaks the
   equality. *)
let counting_probe () =
  let count = ref 0 in
  ( {
      Rio.Types.null_client with
      name = "delete-counter";
      fragment_deleted = Some (fun _ ~tag:_ -> incr count);
    },
    count )

let check_hook_count name ?client ~opts w =
  let probe, count = counting_probe () in
  let client =
    match client with
    | None -> probe
    | Some c -> Clients.Compose.compose [ c; probe ]
  in
  let r, rt = Workload.run_rio ~client ~opts w in
  let s = Rio.stats rt in
  checkb (name ^ ": finished") true r.ok;
  checki
    (name ^ ": hook fired once per deletion")
    (s.Rio.Stats.fragments_deleted + s.Rio.Stats.fragments_replaced)
    !count

let test_hook_exactly_once_eviction () =
  check_hook_count "gcc/fifo"
    ~opts:{ Rio.Options.default with cache_capacity = Some 8192 }
    (wl "gcc")

let test_hook_exactly_once_full_flush () =
  check_hook_count "gcc/full"
    ~opts:
      { Rio.Options.default with
        cache_capacity = Some 8192;
        flush_policy = Rio.Options.Flush_full;
      }
    (wl "gcc")

let test_hook_exactly_once_replacement () =
  check_hook_count "eon/ibdispatch" ~client:(Clients.Ibdispatch.make ())
    ~opts:Rio.Options.default (wl "eon")

let test_hook_exactly_once_faults () =
  (* fault recovery deletes fragments out of band (re-emit, flush-
     fragment, flush-world rungs), on top of concurrent FIFO churn *)
  check_hook_count "parser/faults+fifo"
    ~opts:
      { Rio.Options.default with
        cache_capacity = Some 8192;
        faults = Some { Rio.Options.default_faults with fi_seed = 7 };
        audit_period = 1;
      }
    (wl "parser")

(* ------------------------------------------------------------------ *)
(* Randomized native-equivalence under capacity pressure               *)
(* ------------------------------------------------------------------ *)

let equiv_workloads = [| "gzip"; "parser"; "crafty"; "twolf"; "applu" |]

let native_outputs =
  lazy
    (Array.map (fun n -> (Workload.run_native (wl n)).output) equiv_workloads)

let test_equiv_under_pressure =
  QCheck.Test.make ~count:30
    ~name:"any workload, any small capacity, both policies, ±faults = native"
    QCheck.(
      quad small_nat (int_range 0 8192) bool (option (int_range 1 999)))
    (fun (widx, extra, fifo, fault_seed) ->
      let widx = widx mod Array.length equiv_workloads in
      let cap = floor_cap + extra in
      let opts =
        {
          Rio.Options.default with
          cache_capacity = Some cap;
          flush_policy =
            (if fifo then Rio.Options.Flush_fifo else Rio.Options.Flush_full);
          faults =
            Option.map
              (fun s -> { Rio.Options.default_faults with fi_seed = s })
              fault_seed;
          audit_period = (match fault_seed with Some _ -> 1 | None -> 0);
        }
      in
      let r, rt = Workload.run_rio ~opts (wl equiv_workloads.(widx)) in
      let s = Rio.stats rt in
      (* the fault-recovery ladder's flush-world rung may legitimately
         flush even under FIFO, so only fault-free runs must show zero *)
      r.ok
      && r.output = (Lazy.force native_outputs).(widx)
      && (not (fifo && fault_seed = None) || s.Rio.Stats.cache_flushes = 0))

let () =
  Alcotest.run "cache"
    [
      ( "cachealloc",
        [
          Alcotest.test_case "alloc rounds and fits" `Quick test_alloc_rounds_and_fits;
          Alcotest.test_case "free coalesces" `Quick test_free_coalesces;
          Alcotest.test_case "free rejects bad addresses" `Quick
            test_free_rejects_bad_addresses;
          Alcotest.test_case "reset forgets everything" `Quick
            test_reset_forgets_everything;
          QCheck_alcotest.to_alcotest test_alloc_model;
        ] );
      ( "options",
        [
          Alcotest.test_case "capacity validation" `Quick test_validate_capacities;
          Alcotest.test_case "create rejects bad options" `Quick
            test_create_rejects_bad_options;
        ] );
      ( "fifo eviction",
        [
          Alcotest.test_case "matches native under pressure" `Slow
            test_fifo_eviction_matches_native;
          Alcotest.test_case "unbounded never evicts" `Quick
            test_unbounded_never_evicts;
        ] );
      ( "delete hook",
        [
          Alcotest.test_case "exactly once: fifo eviction" `Quick
            test_hook_exactly_once_eviction;
          Alcotest.test_case "exactly once: full flush" `Quick
            test_hook_exactly_once_full_flush;
          Alcotest.test_case "exactly once: replacement" `Quick
            test_hook_exactly_once_replacement;
          Alcotest.test_case "exactly once: fault recovery" `Quick
            test_hook_exactly_once_faults;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest test_equiv_under_pressure ] );
    ]

(** Statistics-aggregation laws (DESIGN.md §6.10).

    Pool workers keep private {!Rio.Stats.t} records and the serving
    layer folds them together with {!Rio.Stats.merge}, so the fold must
    not care how the per-worker records are grouped or ordered:
    counters add, gauges take the max, and latency histograms combine
    bucket-wise — all associative and commutative.  The percentile
    extractor is checked against the obvious oracle: sort the raw
    samples, pick the rank-th smallest, report its bucket's upper
    bound. *)

module S = Rio.Stats

(* ------------------------------------------------------------------ *)
(* Generator: random stats records                                    *)
(* ------------------------------------------------------------------ *)

(* Samples span bucket 0 (non-positive) through wide buckets, so merge
   and percentile see uneven histograms, not just small dense ones. *)
let gen_samples =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (oneof
         [ int_range (-5) 3; int_range 0 200; int_range 1_000 5_000_000 ]))

(* Every counter is drawn, through the registry, so the merge laws
   cover all of them — summed counters and max-combined gauges alike. *)
let gen_stats : S.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* samples = gen_samples in
  let* values = list_repeat (List.length S.For_testing.rows) (int_range 0 10_000) in
  return
    (let s = S.create () in
     List.iter (S.hist_add s.S.serve_lat) samples;
     List.iter2 (fun (r : S.row) v -> r.set s v) S.For_testing.rows values;
     s)

let stats_arb =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "{blocks=%d; shed=%d; hist_n=%d}" s.S.blocks_built
        s.S.requests_shed (S.For_testing.hist_count s.S.serve_lat))
    gen_stats

(* Structural equality is the right notion: [t] is ints and an int
   array (the histogram), and [merge] allocates fresh records. *)
let eq = ( = )

(* ------------------------------------------------------------------ *)
(* Merge laws                                                         *)
(* ------------------------------------------------------------------ *)

let prop_merge_commut =
  QCheck.Test.make ~count:300 ~name:"merge a b = merge b a"
    QCheck.(pair stats_arb stats_arb)
    (fun (a, b) -> eq (S.merge a b) (S.merge b a))

let prop_merge_assoc =
  QCheck.Test.make ~count:300 ~name:"merge (merge a b) c = merge a (merge b c)"
    QCheck.(triple stats_arb stats_arb stats_arb)
    (fun (a, b, c) -> eq (S.merge (S.merge a b) c) (S.merge a (S.merge b c)))

let prop_merge_identity =
  QCheck.Test.make ~count:300 ~name:"merge (create ()) a = a" stats_arb
    (fun a -> eq (S.merge (S.create ()) a) a)

(* The laws above hold for max as well as for sum; this pins which one
   each counter gets. *)
let prop_merge_pointwise =
  QCheck.Test.make ~count:300 ~name:"merge sums counters, maxes gauges"
    QCheck.(pair stats_arb stats_arb)
    (fun (a, b) ->
      let m = S.merge a b in
      List.for_all
        (fun (r : S.row) ->
          let gauge = String.starts_with ~prefix:"freelist_" r.name in
          r.get m = (if gauge then max else ( + )) (r.get a) (r.get b))
        S.For_testing.rows)

(* Histogram totals are conserved: no sample is dropped or double
   counted by a merge. *)
let prop_merge_conserves_count =
  QCheck.Test.make ~count:300 ~name:"merge conserves histogram mass"
    QCheck.(pair stats_arb stats_arb)
    (fun (a, b) ->
      S.For_testing.hist_count (S.merge a b).S.serve_lat
      = S.For_testing.hist_count a.S.serve_lat + S.For_testing.hist_count b.S.serve_lat)

(* ------------------------------------------------------------------ *)
(* Percentile vs sorted-sample oracle                                 *)
(* ------------------------------------------------------------------ *)

(* The histogram quantile must equal the bucket upper bound of the
   rank-th smallest raw sample, rank = ceil (q/100 * n) clamped to
   [1, n] — bucketing is monotone, so ordering by value orders by
   bucket and the selected bucket is exactly the one holding that
   sample. *)
let oracle_percentile samples q =
  let arr = Array.of_list samples in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then 0
  else
    let rank = min n (max 1 ((n * q + 99) / 100)) in
    S.For_testing.bucket_upper (S.For_testing.bucket_of arr.(rank - 1))

let prop_percentile_oracle =
  QCheck.Test.make ~count:500 ~name:"hist_percentile matches sorted oracle"
    QCheck.(pair (make gen_samples) (make Gen.(int_range 0 100)))
    (fun (samples, q) ->
      let h = S.For_testing.hist_create () in
      List.iter (S.hist_add h) samples;
      let got = S.hist_percentile h q in
      let want = oracle_percentile samples q in
      if got = want then true
      else
        QCheck.Test.fail_reportf "q=%d over %d samples: got %d, oracle %d" q
          (List.length samples) got want)

(* The reported quantile never under-reports: at least ceil (q/100 * n)
   samples really are <= the returned bound. *)
let prop_percentile_conservative =
  QCheck.Test.make ~count:500 ~name:"percentile bound is conservative"
    QCheck.(pair (make gen_samples) (make Gen.(int_range 0 100)))
    (fun (samples, q) ->
      QCheck.assume (samples <> []);
      let h = S.For_testing.hist_create () in
      List.iter (S.hist_add h) samples;
      let bound = S.hist_percentile h q in
      let n = List.length samples in
      let rank = min n (max 1 ((n * q + 99) / 100)) in
      let covered = List.length (List.filter (fun v -> v <= bound) samples) in
      covered >= rank)

(* ------------------------------------------------------------------ *)
(* Directed edges                                                     *)
(* ------------------------------------------------------------------ *)

let test_hist_edges () =
  let h = S.For_testing.hist_create () in
  Alcotest.(check int) "empty histogram p99 is 0" 0 (S.hist_percentile h 99);
  S.hist_add h 0;
  S.hist_add h (-7);
  Alcotest.(check int) "non-positive samples land in bucket 0" 0
    (S.hist_percentile h 100);
  S.hist_add h 1;
  Alcotest.(check int) "p100 tracks the max sample's bucket" 1
    (S.hist_percentile h 100);
  S.hist_add h 1024;
  Alcotest.(check int) "power-of-two sample reports its bucket upper" 2047
    (S.hist_percentile h 100);
  Alcotest.(check int) "count tracks adds" 4 (S.For_testing.hist_count h)

(* ------------------------------------------------------------------ *)
(* The registry: complete, and the report it derives                  *)
(* ------------------------------------------------------------------ *)

let names = List.map (fun (r : S.row) -> r.name) S.For_testing.rows

let test_table_complete () =
  Alcotest.(check int) "one row per int field (all but serve_lat)"
    (Obj.size (Obj.repr (S.create ())) - 1)
    (List.length S.For_testing.rows);
  Alcotest.(check int) "row names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (r : S.row) ->
      let s = S.create () in
      r.set s 7;
      Alcotest.(check int) (r.name ^ " reads back") 7 (r.get s);
      List.iter
        (fun (o : S.row) ->
          if o.name <> r.name then
            Alcotest.(check int)
              (Printf.sprintf "%s untouched by %s" o.name r.name)
              0 (o.get s))
        S.For_testing.rows)
    S.For_testing.rows;
  Alcotest.(check (list string)) "exactly the free-list gauges merge by max"
    [ "freelist_holes"; "freelist_free_bytes"; "freelist_largest_hole" ]
    (List.filter_map
       (fun (r : S.row) -> if r.merge = S.Max then Some r.name else None)
       S.For_testing.rows)

(* Every counter holds a distinct value (its rank among the sorted
   field names), so a label printed against the wrong counter shows. *)
let golden_stats () =
  let s = S.create () in
  List.iteri
    (fun i name ->
      (List.find (fun (r : S.row) -> r.name = name) S.For_testing.rows).set s (i + 1))
    (List.sort compare names);
  s

let report o = Format.asprintf "%a@." (S.pp_report o) (golden_stats ())

let all_groups =
  {
    Rio.Options.default with
    opt_level = 3;
    faults = Some Rio.Options.default_faults;
  }

(* The expected text is the output of the per-group printers this
   report replaced; it must stay byte-identical. *)
let test_report_all_groups () =
  Alcotest.(check string) "core, cache, opt, spec and faults"
    {|blocks built:        3
traces built:        70
fragments deleted:   24
fragments replaced:  28
context switches:    11
ibl lookups:         34
ibl misses:          35
direct links:        13
unlinks:             73
clean calls:         8
bb cache bytes:      5
trace cache bytes:   6
head promotions:     69
signals delivered:   61
runtime cycles:      59
sideline cycles:     60
cache flushes:       7
bb entries:          14
trace entries:       15
evictions:           17
evicted bytes:       16
traces dropped:      71
full-flush fallbacks: 32
free-list holes:     30
free-list free bytes: 29
largest free hole:   31
traces optimized:    48
insns removed:       42
copies propagated:   39
consts propagated:   38
strength reduced:    47
loads removed:       43
loads rewritten:     44
stores removed:      46
dead writes removed: 40
checks simplified:   37
flag saves elided:   41
traces reoptimized:  72
speculative traces:  66
indirect guards:     65
const-load guards:   64
exit biases:         63
guard violations:    67
despeculations:      62
replaces skipped:    45
faults injected:     21 (corrupt 18, link 22, hook 20, signal 23)
faults detected:     19
recoveries:          218 (re-emit 56, flush-frag 54, flush-world 55, emulate 53)
blocks emulated:     4
audits run:          2
audit fragments:     1
hook failures:       33
clients quarantined: 9
spurious sigs dropped: 68
deadline preempts:   12
|}
    (report all_groups)

let test_report_defaults () =
  Alcotest.(check string) "core and cache only"
    {|blocks built:        3
traces built:        70
fragments deleted:   24
fragments replaced:  28
context switches:    11
ibl lookups:         34
ibl misses:          35
direct links:        13
unlinks:             73
clean calls:         8
bb cache bytes:      5
trace cache bytes:   6
head promotions:     69
signals delivered:   61
runtime cycles:      59
sideline cycles:     60
cache flushes:       7
bb entries:          14
trace entries:       15
evictions:           17
evicted bytes:       16
traces dropped:      71
full-flush fallbacks: 32
free-list holes:     30
free-list free bytes: 29
largest free hole:   31
|}
    (report Rio.Options.default)

let () =
  Alcotest.run "stats"
    [
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_merge_commut;
          QCheck_alcotest.to_alcotest prop_merge_assoc;
          QCheck_alcotest.to_alcotest prop_merge_identity;
          QCheck_alcotest.to_alcotest prop_merge_pointwise;
          QCheck_alcotest.to_alcotest prop_merge_conserves_count;
        ] );
      ( "registry",
        [
          Alcotest.test_case "one row per counter" `Quick test_table_complete;
          Alcotest.test_case "report, all groups" `Quick test_report_all_groups;
          Alcotest.test_case "report, defaults" `Quick test_report_defaults;
        ] );
      ( "percentile",
        [
          QCheck_alcotest.to_alcotest prop_percentile_oracle;
          QCheck_alcotest.to_alcotest prop_percentile_conservative;
          Alcotest.test_case "histogram edge cases" `Quick test_hist_edges;
        ] );
    ]

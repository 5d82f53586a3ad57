(** The open-addressing fragment index against a reference model.

    The index replaces four separate [Hashtbl]s on the dispatcher's
    hottest path, so its behaviour under arbitrary interleavings of
    inserts, slot clears, head bumps, marks, and O(1) generation
    flushes must match the obvious hashtable semantics exactly —
    including across table growth, probe-chain collisions, and the
    lazy post-flush normalization of stale entries. *)

module FI = Rio.Fragindex

(* ------------------------------------------------------------------ *)
(* Reference model: plain hashtables with eager flush                 *)
(* ------------------------------------------------------------------ *)

type model = {
  m_bb : (int, int) Hashtbl.t;
  m_trace : (int, int) Hashtbl.t;
  m_ibl : (int, int) Hashtbl.t;
  m_head : (int, int) Hashtbl.t;     (* tag -> counter (>= 0) *)
  m_marked : (int, unit) Hashtbl.t;
}

let model_create () =
  {
    m_bb = Hashtbl.create 16;
    m_trace = Hashtbl.create 16;
    m_ibl = Hashtbl.create 16;
    m_head = Hashtbl.create 16;
    m_marked = Hashtbl.create 16;
  }

type op =
  | Set_bb of int * int
  | Set_trace of int * int
  | Set_ibl of int * int
  | Clear_ibl of int
  | Bump_head of int                  (* the dispatcher's head-counter bump *)
  | Mark of int                       (* dr_mark_trace_head *)
  | Delete of int                     (* per-key backward-shift delete *)
  | Flush                             (* flush_fragments: heads survive *)

let op_to_string = function
  | Set_bb (t, v) -> Printf.sprintf "set_bb %d %d" t v
  | Set_trace (t, v) -> Printf.sprintf "set_trace %d %d" t v
  | Set_ibl (t, v) -> Printf.sprintf "set_ibl %d %d" t v
  | Clear_ibl t -> Printf.sprintf "clear_ibl %d" t
  | Bump_head t -> Printf.sprintf "bump_head %d" t
  | Mark t -> Printf.sprintf "mark %d" t
  | Delete t -> Printf.sprintf "delete %d" t
  | Flush -> "flush"

let model_apply (m : model) = function
  | Set_bb (t, v) -> Hashtbl.replace m.m_bb t v
  | Set_trace (t, v) -> Hashtbl.replace m.m_trace t v
  | Set_ibl (t, v) -> Hashtbl.replace m.m_ibl t v
  | Clear_ibl t -> Hashtbl.remove m.m_ibl t
  | Bump_head t ->
      let c = Option.value (Hashtbl.find_opt m.m_head t) ~default:0 in
      Hashtbl.replace m.m_head t (c + 1)
  | Mark t ->
      Hashtbl.replace m.m_marked t ();
      if not (Hashtbl.mem m.m_head t) then Hashtbl.replace m.m_head t 0
  | Delete t ->
      Hashtbl.remove m.m_bb t;
      Hashtbl.remove m.m_trace t;
      Hashtbl.remove m.m_ibl t;
      Hashtbl.remove m.m_head t;
      Hashtbl.remove m.m_marked t
  | Flush ->
      Hashtbl.reset m.m_bb;
      Hashtbl.reset m.m_trace;
      Hashtbl.reset m.m_ibl

let index_apply (idx : int FI.t) = function
  | Set_bb (t, v) -> FI.set_bb idx t v
  | Set_trace (t, v) -> FI.set_trace idx t v
  | Set_ibl (t, v) -> FI.set_ibl idx t v
  | Clear_ibl t -> FI.For_testing.clear_ibl idx t
  | Bump_head t ->
      let e = FI.ensure idx t in
      e.FI.head <- 1 + (if e.FI.head >= 0 then e.FI.head else 0)
  | Mark t ->
      let e = FI.ensure idx t in
      e.FI.marked <- true;
      if e.FI.head < 0 then e.FI.head <- 0
  | Delete t -> FI.delete idx t
  | Flush -> FI.flush_fragments idx

(* ------------------------------------------------------------------ *)
(* Agreement check over the whole tag universe                        *)
(* ------------------------------------------------------------------ *)

let tag_universe = 700

let agree (idx : int FI.t) (m : model) : string option =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  for tag = 0 to tag_universe - 1 do
    let eq name got want =
      if got <> want then fail "tag %d: %s disagrees" tag name
    in
    eq "bb" (FI.find_bb idx tag) (Hashtbl.find_opt m.m_bb tag);
    eq "trace" (FI.find_trace idx tag) (Hashtbl.find_opt m.m_trace tag);
    eq "ibl" (FI.find_ibl idx tag) (Hashtbl.find_opt m.m_ibl tag);
    if FI.is_head idx tag <> (Hashtbl.mem m.m_head tag || Hashtbl.mem m.m_marked tag)
    then fail "tag %d: is_head disagrees" tag;
    match FI.find idx tag with
    | Some e when Hashtbl.mem m.m_head tag ->
        eq "head counter" (Some e.FI.head) (Hashtbl.find_opt m.m_head tag)
    | _ -> ()
  done;
  if FI.bb_count idx <> Hashtbl.length m.m_bb then fail "bb_count disagrees";
  if FI.trace_count idx <> Hashtbl.length m.m_trace then
    fail "trace_count disagrees";
  (* iterators surface exactly the model's live bindings *)
  let collect iter =
    let acc = ref [] in
    iter idx (fun k v -> acc := (k, v) :: !acc);
    List.sort compare !acc
  in
  let model_bindings tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  if collect FI.iter_bbs <> model_bindings m.m_bb then fail "iter_bbs disagrees";
  if collect FI.iter_traces <> model_bindings m.m_trace then
    fail "iter_traces disagrees";
  if collect FI.iter_ibl <> model_bindings m.m_ibl then fail "iter_ibl disagrees";
  !err

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let op_gen : op QCheck.Gen.t =
  let open QCheck.Gen in
  (* a small universe so probe chains collide and the table grows *)
  let tag = int_bound (tag_universe - 1) in
  let v = int_bound 10_000 in
  frequency
    [
      (4, map2 (fun t x -> Set_bb (t, x)) tag v);
      (3, map2 (fun t x -> Set_trace (t, x)) tag v);
      (3, map2 (fun t x -> Set_ibl (t, x)) tag v);
      (1, map (fun t -> Clear_ibl t) tag);
      (3, map (fun t -> Bump_head t) tag);
      (1, map (fun t -> Mark t) tag);
      (* deletes are frequent enough that probe chains shrink and
         re-close under churn, exercising the backward shift *)
      (3, map (fun t -> Delete t) tag);
      (1, return Flush);
    ]

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_bound 1500) op_gen)

let prop_index_matches_model =
  QCheck.Test.make ~count:60 ~name:"index agrees with hashtable model" ops_arb
    (fun ops ->
      (* tiny initial table: growth and collisions on every run *)
      let idx = FI.create ~bits:2 () in
      let m = model_create () in
      List.iter
        (fun op ->
          index_apply idx op;
          model_apply m op)
        ops;
      match agree idx m with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_entries_stable_across_growth =
  QCheck.Test.make ~count:30 ~name:"entry records survive rehash"
    QCheck.(make Gen.(int_bound (tag_universe - 1)))
    (fun tag ->
      let idx = FI.create ~bits:2 () in
      let e = FI.ensure idx tag in
      e.FI.head <- 7;
      (* force several growths *)
      for k = 0 to 999 do
        FI.set_bb idx (tag_universe + (7 * k)) k
      done;
      (* the held reference is still THE entry for the tag *)
      FI.ensure idx tag == e && e.FI.head = 7 && FI.is_head idx tag)

let prop_entries_stable_across_delete =
  QCheck.Test.make ~count:50 ~name:"entry records survive deletes of other keys"
    QCheck.(pair (make Gen.(int_bound 99)) (make Gen.(int_bound 99)))
    (fun (keep, del) ->
      let del = if del = keep then (del + 1) mod 100 else del in
      let idx = FI.create ~bits:2 () in
      for k = 0 to 99 do
        FI.set_bb idx k k
      done;
      let e = FI.ensure idx keep in
      e.FI.head <- 3;
      FI.delete idx del;
      FI.ensure idx keep == e
      && FI.find_bb idx keep = Some keep
      && FI.find_bb idx del = None)

(* ------------------------------------------------------------------ *)
(* Directed cases                                                     *)
(* ------------------------------------------------------------------ *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_delete_removes_everything () =
  let idx = FI.create () in
  FI.set_bb idx 10 1;
  FI.set_trace idx 10 2;
  FI.set_ibl idx 10 3;
  (FI.ensure idx 10).FI.head <- 5;
  FI.delete idx 10;
  checkb "no entry" true (FI.find idx 10 = None);
  checkb "not a head" false (FI.is_head idx 10);
  checki "count" 0 (FI.For_testing.count idx);
  (* deleting an absent key is a no-op *)
  FI.delete idx 10;
  checki "still empty" 0 (FI.For_testing.count idx)

let test_delete_closes_probe_chains () =
  (* a tiny initial table guarantees long collision chains; deleting
     interior keys must backward-shift the chains closed so every
     surviving key stays reachable from its ideal slot *)
  let idx = FI.create ~bits:2 () in
  for k = 0 to 99 do
    FI.set_bb idx k k
  done;
  for k = 0 to 99 do
    if k mod 3 = 0 then FI.delete idx k
  done;
  for k = 0 to 99 do
    let want = if k mod 3 = 0 then None else Some k in
    if FI.find_bb idx k <> want then Alcotest.failf "key %d wrong after deletes" k
  done;
  checki "live keys" 66 (FI.For_testing.count idx);
  (* deleted slots are genuinely reusable *)
  for k = 0 to 99 do
    if k mod 3 = 0 then FI.set_bb idx k (k * 2)
  done;
  checki "refilled" 100 (FI.For_testing.count idx)

let test_flush_preserves_heads () =
  let idx = FI.create () in
  FI.set_bb idx 10 111;
  FI.set_trace idx 10 222;
  FI.set_ibl idx 10 333;
  let e = FI.ensure idx 10 in
  e.FI.head <- 5;
  FI.flush_fragments idx;
  checkb "bb gone" true (FI.find_bb idx 10 = None);
  checkb "trace gone" true (FI.find_trace idx 10 = None);
  checkb "ibl gone" true (FI.find_ibl idx 10 = None);
  checki "bb_count" 0 (FI.bb_count idx);
  checkb "still a head" true (FI.is_head idx 10);
  checki "counter survives" 5 (FI.ensure idx 10).FI.head;
  (* the slot is reusable after the flush *)
  FI.set_bb idx 10 444;
  checkb "re-set works" true (FI.find_bb idx 10 = Some 444)

let test_repeated_flushes () =
  let idx = FI.create ~bits:2 () in
  for round = 1 to 50 do
    FI.set_bb idx round round;
    FI.flush_fragments idx
  done;
  checki "all flushed" 0 (FI.bb_count idx);
  for round = 1 to 50 do
    assert (FI.find_bb idx round = None)
  done

(* ------------------------------------------------------------------ *)
(* Cross-run profile merging (shared-store publish path)               *)
(* ------------------------------------------------------------------ *)

let mk_prof ?(t1 = 0) ?(n1 = 0) ?(t2 = 0) ?(n2 = 0) ?(other = 0) () =
  { FI.p_t1 = t1; p_n1 = n1; p_t2 = t2; p_n2 = n2; p_other = other;
    p_total = n1 + n2 + other }

let prof_eq name (a : FI.profile) (b : FI.profile) =
  Alcotest.(check (list int)) name
    [ a.FI.p_t1; a.FI.p_n1; a.FI.p_t2; a.FI.p_n2; a.FI.p_other; a.FI.p_total ]
    [ b.FI.p_t1; b.FI.p_n1; b.FI.p_t2; b.FI.p_n2; b.FI.p_other; b.FI.p_total ]

(* Publishers carry cumulative histograms, so the merge takes the
   per-target max — re-publishing an already-merged profile must not
   inflate anything. *)
let test_merge_max () =
  let dst = mk_prof ~t1:10 ~n1:5 ~t2:20 ~n2:3 ~other:2 () in
  let src = mk_prof ~t1:10 ~n1:8 ~t2:20 ~n2:1 ~other:2 () in
  FI.merge_profile ~src dst;
  prof_eq "per-target max" (mk_prof ~t1:10 ~n1:8 ~t2:20 ~n2:3 ~other:2 ()) dst

let test_merge_idempotent () =
  let dst = mk_prof ~t1:10 ~n1:5 ~t2:20 ~n2:3 ~other:1 () in
  let src = mk_prof ~t1:20 ~n1:9 ~t2:30 ~n2:4 ~other:2 () in
  FI.merge_profile ~src dst;
  let once = FI.For_testing.copy_profile dst in
  FI.merge_profile ~src dst;
  prof_eq "second merge is a no-op" once dst;
  (* and merging a profile into itself never moves it *)
  let self = mk_prof ~t1:7 ~n1:6 ~t2:8 ~n2:2 ~other:3 () in
  let before = FI.For_testing.copy_profile self in
  FI.merge_profile ~src:(FI.For_testing.copy_profile self) self;
  prof_eq "self-merge is a no-op" before self

let test_merge_disjoint () =
  let dst = mk_prof ~t1:1 ~n1:5 () in
  let src = mk_prof ~t1:2 ~n1:7 () in
  FI.merge_profile ~src dst;
  (* union: heavier target takes slot 1, the other slot 2 *)
  prof_eq "disjoint union" (mk_prof ~t1:2 ~n1:7 ~t2:1 ~n2:5 ()) dst;
  (* four distinct targets: top two kept, rest spills into other *)
  let dst = mk_prof ~t1:1 ~n1:5 ~t2:2 ~n2:4 () in
  let src = mk_prof ~t1:3 ~n1:9 ~t2:4 ~n2:1 () in
  FI.merge_profile ~src dst;
  prof_eq "spill beyond two slots"
    (mk_prof ~t1:3 ~n1:9 ~t2:1 ~n2:5 ~other:5 ()) dst

let test_merge_order_independent () =
  let a () = mk_prof ~t1:10 ~n1:5 ~t2:20 ~n2:5 ~other:1 () in
  let b () = mk_prof ~t1:30 ~n1:5 ~t2:20 ~n2:2 ~other:4 () in
  let ab = a () in
  FI.merge_profile ~src:(b ()) ab;
  let ba = b () in
  FI.merge_profile ~src:(a ()) ba;
  prof_eq "merge commutes" ab ba

let () =
  Alcotest.run "fragindex"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_index_matches_model;
          QCheck_alcotest.to_alcotest prop_entries_stable_across_growth;
          QCheck_alcotest.to_alcotest prop_entries_stable_across_delete;
        ] );
      ( "directed",
        [
          Alcotest.test_case "flush preserves heads" `Quick
            test_flush_preserves_heads;
          Alcotest.test_case "repeated flushes" `Quick test_repeated_flushes;
          Alcotest.test_case "delete removes everything" `Quick
            test_delete_removes_everything;
          Alcotest.test_case "delete closes probe chains" `Quick
            test_delete_closes_probe_chains;
        ] );
      ( "profile merge",
        [
          Alcotest.test_case "per-target max" `Quick test_merge_max;
          Alcotest.test_case "idempotent" `Quick test_merge_idempotent;
          Alcotest.test_case "disjoint union + spill" `Quick
            test_merge_disjoint;
          Alcotest.test_case "order independent" `Quick
            test_merge_order_independent;
        ] );
    ]

(** Tests for the persistent code cache (DESIGN.md §6.8): a saved
    image warm-boots a fresh engine by relocation replay, and the
    warm-booted run is byte-identical to both a never-persisted run and
    the native reference — across optimization levels and under FIFO
    cache pressure.  Damaged images (corrupted, truncated,
    version-skewed, wrong program, wrong options) are refused with a
    typed error, never a crash, and the refused engine still serves
    cold. *)

open Workloads

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))

let wl name = Workload.serving_variant (Option.get (Suite.by_name name))

(* A few quick workloads spanning int and fp pipelines. *)
let suite = [| "gzip"; "parser"; "crafty"; "applu" |]

let opts_for ~level ~fifo =
  {
    Rio.Options.default with
    opt_level = level;
    cache_capacity =
      (* a deliberately small FIFO region so priming evicts and the
         save/load path meets fragmentation head on *)
      (if fifo then Some (2 * Rio.Options.(min_cache_capacity default))
       else None);
    flush_policy = Rio.Options.Flush_fifo;
  }

(* Serve one request the way the pool does: cold-loaded image, one
   thread, the request input stream.  [cache] warm-boots from a saved
   image first. *)
let serve_once ?cache ~opts (w : Workload.t) input :
    (Rio.Persist.summary, Rio.Persist.error) result option
    * int list
    * Rio.Engine.t =
  let image = Asm.Assemble.assemble w.Workload.program in
  let m = Vm.Machine.create () in
  Asm.Image.load_cold m image;
  let rt = Rio.Engine.create ~opts m in
  let loaded =
    Option.map
      (fun path ->
        Rio.Engine.load_image rt ~image_digest:(Asm.Image.digest image) ~path)
      cache
  in
  ignore
    (Vm.Machine.add_thread m ~entry:image.Asm.Image.entry
       ~stack_top:Asm.Image.default_stack_top);
  Vm.Machine.set_input m input;
  let o = Rio.Engine.run rt in
  checkb "request finished" true (o.Rio.Engine.reason = Rio.Engine.All_exited);
  (loaded, Vm.Machine.output m, rt)

let with_tmp f =
  let path = Filename.temp_file "rio" ".riocache" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Round trip: save -> load -> run is byte-identical                  *)
(* ------------------------------------------------------------------ *)

let test_roundtrip =
  QCheck.Test.make ~count:40
    ~name:"warm-boot run byte-identical to native and to never-persisted run"
    QCheck.(quad small_nat small_nat (int_range 0 2) bool)
    (fun (widx, seed, lidx, fifo) ->
      let w = wl suite.(widx mod Array.length suite) in
      let level = [| 0; 2; 3 |].(lidx) in
      let opts = opts_for ~level ~fifo in
      let input = Workload.request_input ~seed @ w.Workload.input in
      let native = Workload.run_native (Workload.with_input w input) in
      assert native.Workload.ok;
      with_tmp (fun path ->
          (* prime an instance, then snapshot it *)
          let _, prime_out, prime_rt = serve_once ~opts w input in
          let image = Asm.Assemble.assemble w.Workload.program in
          let persisted =
            Rio.Engine.save_image prime_rt
              ~image_digest:(Asm.Image.digest image) ~path
          in
          (* a fresh never-persisted instance, and a warm-booted one *)
          let _, fresh_out, _ = serve_once ~opts w input in
          let loaded, warm_out, warm_rt = serve_once ~cache:path ~opts w input in
          let summary =
            match loaded with
            | Some (Ok s) -> s
            | Some (Error e) ->
                QCheck.Test.fail_reportf "image refused: %s"
                  (Rio.Persist.error_to_string e)
            | None -> assert false
          in
          let warm_stats = Rio.Engine.stats warm_rt in
          prime_out = native.Workload.output
          && fresh_out = native.Workload.output
          && warm_out = native.Workload.output
          && summary.Rio.Persist.fragments + summary.Rio.Persist.skipped
             = persisted
          && warm_stats.Rio.Stats.fragments_preloaded
             = summary.Rio.Persist.fragments))

(* The headline effect, deterministically: with everything persisted,
   the warm-booted request rebuilds (almost) nothing. *)
let test_warm_boot_skips_building () =
  let w = wl "gzip" in
  let opts = opts_for ~level:3 ~fifo:false in
  let input = Workload.request_input ~seed:7 @ w.Workload.input in
  with_tmp (fun path ->
      let _, _, prime_rt = serve_once ~opts w input in
      let image = Asm.Assemble.assemble w.Workload.program in
      let n =
        Rio.Engine.save_image prime_rt ~image_digest:(Asm.Image.digest image)
          ~path
      in
      checkb "something persisted" true (n > 0);
      let _, _, cold_rt = serve_once ~opts w input in
      let loaded, _, warm_rt = serve_once ~cache:path ~opts w input in
      (match loaded with
      | Some (Ok s) -> checki "all fragments loaded" n s.Rio.Persist.fragments
      | _ -> Alcotest.fail "image refused");
      let cold = (Rio.Engine.stats cold_rt).Rio.Stats.blocks_built in
      let warm = (Rio.Engine.stats warm_rt).Rio.Stats.blocks_built in
      checkb
        (Printf.sprintf "warm run builds fewer blocks (%d < %d)" warm cold)
        true (warm < cold))

(* ------------------------------------------------------------------ *)
(* -O3 guard state round trip (format v2)                             *)
(* ------------------------------------------------------------------ *)

let kind_code = function
  | Rio.Types.G_ind Rio.Types.Ind_jmp -> 0
  | Rio.Types.G_ind Rio.Types.Ind_call -> 1
  | Rio.Types.G_ind Rio.Types.Ind_ret -> 2
  | Rio.Types.G_const -> 3

(* The guard state [save] persists, as a sorted multiset of
   (trace tag, site, kind, lifetime violations): guards of live
   persistable traces that are bound to a live exit. *)
let guard_multiset (rt : Rio.Engine.t) : (int * int * int * int) list =
  let open Rio.Types in
  let acc = ref [] in
  List.iter
    (fun ts ->
      Rio.Fragindex.iter_traces ts.index (fun _ f ->
          let persistable =
            (not f.deleted)
            && Array.for_all
                 (fun r ->
                   match r.r_target with
                   | RT_runtime_abs _ -> false
                   | _ -> true)
                 f.relocs
          in
          if persistable then
            List.iter
              (fun g ->
                if Array.exists (fun e -> e.exit_id = g.g_exit_id) f.exits
                then
                  acc :=
                    (f.tag, g.g_site, kind_code g.g_kind, g.g_violations)
                    :: !acc)
              f.guards))
    rt.thread_states;
  List.sort compare !acc

let multiset_to_string ms =
  String.concat "; "
    (List.map
       (fun (tag, site, kind, viols) ->
         Printf.sprintf "(0x%x,0x%x,k%d,v%d)" tag site kind viols)
       ms)

(* Speculation state must survive the reboot: a fresh engine
   warm-booted from a spec-heavy -O3 image carries exactly the saver's
   guard multiset — sites, assumption kinds, and lifetime violation
   counters — re-bound to fresh exits with clean burst state, and then
   serves byte-identically to native.  mesa exercises the full
   lifecycle (speculate / violate / despec / re-speculate); eon
   accumulates violations on indirect-target guards. *)
let test_guard_roundtrip () =
  let total_guards = ref 0 and total_viols = ref 0 in
  List.iter
    (fun name ->
      let w = wl name in
      let opts = opts_for ~level:3 ~fifo:false in
      let input = Workload.request_input ~seed:11 @ w.Workload.input in
      let native = Workload.run_native (Workload.with_input w input) in
      assert native.Workload.ok;
      with_tmp (fun path ->
          let _, _, prime_rt = serve_once ~opts w input in
          let image = Asm.Assemble.assemble w.Workload.program in
          ignore
            (Rio.Engine.save_image prime_rt
               ~image_digest:(Asm.Image.digest image) ~path);
          let expected = guard_multiset prime_rt in
          total_guards := !total_guards + List.length expected;
          List.iter (fun (_, _, _, v) -> total_viols := !total_viols + v)
            expected;
          (* load into a fresh engine WITHOUT serving anything, so the
             loaded guard state is inspectable before a run mutates it *)
          let m = Vm.Machine.create () in
          Asm.Image.load_cold m image;
          let cold_rt = Rio.Engine.create ~opts m in
          (match
             Rio.Engine.load_image cold_rt
               ~image_digest:(Asm.Image.digest image) ~path
           with
          | Ok _ -> ()
          | Error e ->
              Alcotest.fail (name ^ ": " ^ Rio.Persist.error_to_string e));
          let got = guard_multiset cold_rt in
          checkb
            (Printf.sprintf "%s: guard multiset preserved ([%s] vs [%s])"
               name
               (multiset_to_string expected)
               (multiset_to_string got))
            true (got = expected);
          (* run-local burst state starts clean on every loaded guard *)
          List.iter
            (fun ts ->
              Rio.Fragindex.iter_traces ts.Rio.Types.index (fun _ f ->
                  List.iter
                    (fun (g : Rio.Types.guard) ->
                      checki (name ^ ": burst reset") 0 g.Rio.Types.g_burst;
                      checki
                        (name ^ ": violation stamp reset")
                        0 g.Rio.Types.g_last_violation)
                    f.Rio.Types.guards))
            cold_rt.Rio.Types.thread_states;
          (* and a warm-booted request still serves byte-identically *)
          let loaded, warm_out, _ = serve_once ~cache:path ~opts w input in
          (match loaded with
          | Some (Ok _) -> ()
          | Some (Error e) ->
              Alcotest.fail (name ^ ": " ^ Rio.Persist.error_to_string e)
          | None -> assert false);
          check_ilist (name ^ ": warm -O3 output identical to native")
            native.Workload.output warm_out))
    [ "mesa"; "eon" ];
  (* the case must not pass vacuously *)
  checkb "some guards persisted" true (!total_guards > 0);
  checkb "some lifetime violations persisted" true (!total_viols > 0)

(* ------------------------------------------------------------------ *)
(* Damaged images: typed refusal, no crash, engine still serves       *)
(* ------------------------------------------------------------------ *)

(* Save a primed gzip image once; each rejection case mutates a copy. *)
let saved_image =
  lazy
    (let w = wl "gzip" in
     let opts = opts_for ~level:2 ~fifo:false in
     let input = Workload.request_input ~seed:3 @ w.Workload.input in
     let path = Filename.temp_file "rio_master" ".riocache" in
     let _, _, rt = serve_once ~opts w input in
     let image = Asm.Assemble.assemble w.Workload.program in
     let n =
       Rio.Engine.save_image rt ~image_digest:(Asm.Image.digest image) ~path
     in
     assert (n > 0);
     (path, opts, w, input))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Feed a (possibly damaged) image to a fresh engine; the load must
   return [Error expect] without raising, and the engine must still
   serve the request correctly from a cold cache afterwards. *)
let expect_refusal ~who ~expect (damage : string -> string) : unit =
  let master, opts, w, input = Lazy.force saved_image in
  let native = Workload.run_native (Workload.with_input w input) in
  with_tmp (fun path ->
      write_file path (damage (read_file master));
      let loaded, out, rt = serve_once ~cache:path ~opts w input in
      (match loaded with
      | Some (Error e) ->
          checkb
            (Printf.sprintf "%s: refused as %s (got %s)" who
               (Rio.Persist.error_to_string expect)
               (Rio.Persist.error_to_string e))
            true (e = expect)
      | Some (Ok _) -> Alcotest.fail (who ^ ": damaged image accepted")
      | None -> assert false);
      check_ilist (who ^ ": cold fallback still correct")
        native.Workload.output out;
      checki (who ^ ": refusal counted") 1
        (Rio.Engine.stats rt).Rio.Stats.persist_load_failures)

let flip s i mask =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
  Bytes.to_string b

let test_bad_magic () =
  expect_refusal ~who:"bad magic" ~expect:Rio.Persist.Bad_magic (fun s ->
      flip s 0 0x40)

let test_version_skew () =
  (* the version field sits right after the 8-byte magic; flipping the
     low bits of v2 yields v1 *)
  expect_refusal ~who:"version skew"
    ~expect:(Rio.Persist.Bad_version 1)
    (fun s -> flip s 8 0x03)

let test_corrupted_payload () =
  expect_refusal ~who:"payload corruption"
    ~expect:Rio.Persist.Checksum_mismatch (fun s ->
      flip s (String.length s / 2) 0x10)

let test_truncated_header () =
  expect_refusal ~who:"truncated to header stub"
    ~expect:Rio.Persist.Truncated (fun s -> String.sub s 0 (min 10 (String.length s)))

let test_truncated_payload () =
  (* losing the tail also loses the stored checksum *)
  expect_refusal ~who:"truncated payload"
    ~expect:Rio.Persist.Checksum_mismatch (fun s ->
      String.sub s 0 (String.length s / 2))

let test_options_mismatch () =
  let master, _, w, input = Lazy.force saved_image in
  let other = opts_for ~level:3 ~fifo:false in
  let loaded, _, _ =
    serve_once ~cache:master ~opts:other w input
  in
  match loaded with
  | Some (Error Rio.Persist.Options_mismatch) -> ()
  | Some (Error e) ->
      Alcotest.fail ("wrong error: " ^ Rio.Persist.error_to_string e)
  | Some (Ok _) -> Alcotest.fail "options skew accepted"
  | None -> assert false

let test_image_mismatch () =
  (* same options, different program: the digest check must refuse *)
  let master, opts, _, _ = Lazy.force saved_image in
  let w = wl "parser" in
  let input = Workload.request_input ~seed:3 @ w.Workload.input in
  let loaded, out, _ = serve_once ~cache:master ~opts w input in
  let native = Workload.run_native (Workload.with_input w input) in
  (match loaded with
  | Some (Error Rio.Persist.Image_mismatch) -> ()
  | Some (Error e) ->
      Alcotest.fail ("wrong error: " ^ Rio.Persist.error_to_string e)
  | Some (Ok _) -> Alcotest.fail "foreign program's image accepted"
  | None -> assert false);
  check_ilist "cold fallback still correct" native.Workload.output out

let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

(* [s] with the FNV-1a trailer a saved image ends in *)
let stamp s = s ^ le32 (Rio.Codec.fnv32 s ~pos:0 ~len:(String.length s))

(* A payload that stops decoding part-way is refused as a whole: no
   fragment decoded before the failure is materialized, so the engine
   serves cold. *)
let test_refused_payload_leaves_engine_cold () =
  let master, opts, w, input = Lazy.force saved_image in
  let native = Workload.run_native (Workload.with_input w input) in
  let s = read_file master in
  let n = String.length s in
  (* drop the payload's last bytes and re-stamp the checksum *)
  let damaged = stamp (String.sub s 0 (n - 14)) in
  with_tmp (fun path ->
      write_file path damaged;
      let loaded, out, rt = serve_once ~cache:path ~opts w input in
      (match loaded with
      | Some (Error (Rio.Persist.Malformed _)) -> ()
      | Some (Error e) -> Alcotest.fail ("wrong error: " ^ Rio.Persist.error_to_string e)
      | Some (Ok _) -> Alcotest.fail "truncated payload accepted"
      | None -> assert false);
      checki "fragments preloaded" 0 (Rio.Engine.stats rt).Rio.Stats.fragments_preloaded;
      check_ilist "cold output" native.Workload.output out)

(* ------------------------------------------------------------------ *)
(* Checksum-valid images with a negative varint                       *)
(* ------------------------------------------------------------------ *)

(* A 9-byte LEB128 varint whose value, 2^62, wraps to a negative OCaml
   int.  Each case below plants it in one field of an otherwise
   loadable image and re-stamps the checksum, so only the parser's own
   checks stand between the value and the runtime. *)
let negative = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"

let byte n = String.make 1 (Char.chr n)

(* One thread holding one 16-byte bb whose exit branch (at 0) and stub
   jump (at 8) are long jumps; [body], [nsrc] and [branch] replace the
   encodings of its body length, source-range count and exit branch
   offset. *)
let synthetic_image ~opts (w : Workload.t) ?(body = byte 4) ?(nsrc = byte 1)
    ?(branch = byte 0) () =
  let jmp = "\x81" ^ String.make 4 '\000' ^ String.make 3 '\x90' in
  let fragment =
    String.concat ""
      [ byte 0 (* bb *); "\x80\x80\x20" (* tag 0x80000 *); body; byte 16;
        nsrc; byte 1; byte 2 (* source range *);
        byte 1 (* exits *); byte 0; byte 0; branch; byte 0; byte 8; byte 8;
        byte 0;
        byte 1 (* relocs *); byte 0; byte 0 (* exit branch *); byte 0;
        byte 0 (* guards *); jmp; jmp ]
  in
  let payload =
    String.concat ""
      [ byte 1 (* threads *); byte 0 (* tid *); byte 0 (* index entries *);
        byte 1 (* bbs *); fragment; byte 0 (* traces *) ]
  in
  let image = Asm.Assemble.assemble w.Workload.program in
  stamp
    (String.concat ""
       [ "RIOCACHE"; le32 2; le32 (Rio.Options.digest opts);
         le32 (Asm.Image.digest image land 0xffff_ffff); payload ])

(* Load [make]'s image into a fresh engine; raising fails the case. *)
let load_synthetic ~who make =
  let w = wl "gzip" in
  let opts = opts_for ~level:0 ~fifo:false in
  with_tmp (fun path ->
      write_file path (make ~opts w);
      let image = Asm.Assemble.assemble w.Workload.program in
      let m = Vm.Machine.create () in
      Asm.Image.load_cold m image;
      let rt = Rio.Engine.create ~opts m in
      match
        Rio.Engine.load_image rt ~image_digest:(Asm.Image.digest image) ~path
      with
      | r -> r
      | exception e -> Alcotest.fail (who ^ ": raised " ^ Printexc.to_string e))

let refused ~who make =
  match load_synthetic ~who make with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (who ^ ": accepted")

let test_synthetic_loads () =
  match load_synthetic ~who:"unmutated" (fun ~opts w -> synthetic_image ~opts w ()) with
  | Ok s -> checki "the unmutated image loads its fragment" 1 s.Rio.Persist.fragments
  | Error e -> Alcotest.fail (Rio.Persist.error_to_string e)

let test_negative_src_count () =
  refused ~who:"negative source-range count" (fun ~opts w ->
      synthetic_image ~opts w ~nsrc:negative ())

let test_negative_exit_offset () =
  refused ~who:"negative exit branch offset" (fun ~opts w ->
      synthetic_image ~opts w ~branch:negative ())

let test_negative_body_len () =
  refused ~who:"negative bb body length" (fun ~opts w ->
      synthetic_image ~opts w ~body:negative ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "persist"
    [
      ( "round trip",
        [
          QCheck_alcotest.to_alcotest test_roundtrip;
          Alcotest.test_case "warm boot skips block building" `Slow
            test_warm_boot_skips_building;
          Alcotest.test_case "-O3 guard state survives save/load" `Slow
            test_guard_roundtrip;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "version skew" `Quick test_version_skew;
          Alcotest.test_case "corrupted payload" `Quick test_corrupted_payload;
          Alcotest.test_case "truncated header" `Quick test_truncated_header;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload;
          Alcotest.test_case "options mismatch" `Quick test_options_mismatch;
          Alcotest.test_case "program mismatch" `Quick test_image_mismatch;
          Alcotest.test_case "refused payload leaves the engine cold" `Quick
            test_refused_payload_leaves_engine_cold;
        ] );
      ( "neg varint",
        [
          Alcotest.test_case "the unmutated image loads" `Quick
            test_synthetic_loads;
          Alcotest.test_case "source-range count" `Quick test_negative_src_count;
          Alcotest.test_case "exit branch offset" `Quick
            test_negative_exit_offset;
          Alcotest.test_case "bb body length" `Quick test_negative_body_len;
        ] );
    ]

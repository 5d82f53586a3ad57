(** Adaptive indirect-branch dispatch (paper §4.3, Figure 4).

    The in-cache hashtable lookup for indirect branches is DynamoRIO's
    single greatest source of overhead.  This client value-profiles the
    targets of each inlined indirect branch whose check misses, and —
    once enough samples accumulate — {e rewrites its own trace} to
    insert compare-plus-direct-branch pairs for the hottest targets
    ahead of the lookup:

    {v
    [flags save]                      [flags save]
    cmp [slot], inlined        →      cmp [slot], hot_1
    jne (profile; lookup)             je  hot_1           ; direct exit
                                      cmp [slot], hot_2
                                      je  hot_2
                                      cmp [slot], inlined
                                      jne (profile; lookup)
    v}

    The rewrite uses the adaptive-optimization API: the profiling clean
    call runs [decode_fragment] on the very trace it lives in, edits
    the InstrList, and installs it with [replace_fragment] — while
    execution may still be inside the old fragment body. *)

open Isa
open Rio.Types

type params = { sample_threshold : int; max_inline : int }

let default_params = { sample_threshold = 64; max_inline = 4 }

type site = {
  s_tag : int;                        (* trace tag *)
  s_idx : int;                        (* which inline check in the trace *)
  counts : (int, int) Hashtbl.t;      (* observed target -> samples *)
  mutable total : int;
  mutable inlined : int list;         (* targets already given dispatch pairs *)
  mutable rewrites : int;
}

type t = {
  params : params;
  sites : (int * int * int, site) Hashtbl.t;  (* tid, tag, idx *)
  mutable checks_instrumented : int;
  mutable total_rewrites : int;
  mutable pairs_inserted : int;
}

let fresh () =
  {
    params = default_params;
    sites = Hashtbl.create 64;
    checks_instrumented = 0;
    total_rewrites = 0;
    pairs_inserted = 0;
  }

(* Is this instr an inline-check miss branch (jne to an IND token)? *)
let is_check_jne (i : Rio.Instr.t) =
  (not (Rio.Instr.is_bundle i))
  &&
  match Rio.Instr.get_opcode i with
  | Opcode.Jcc Cond.NZ -> (
      match Rio.Instr.get_src i 0 with
      | Operand.Target t -> ind_kind_of_token t <> None
      | _ -> false)
  | _ -> false

(* Does this check's stub restore saved flags?  (Decides whether our
   inserted direct exits must restore them too.) *)
let stub_restores_flags (jne : Rio.Instr.t) =
  match Rio.Api.get_custom_stub jne with
  | None -> false
  | Some (stub_il, _) ->
      Rio.Instrlist.exists stub_il (fun si ->
          (not (Rio.Instr.is_bundle si))
          && Rio.Instr.get_opcode si = Opcode.Popf)

(* Find the [idx]-th inline check jne in [il]. *)
let find_check (il : Rio.Instrlist.t) idx : Rio.Instr.t option =
  let k = ref (-1) in
  Rio.Instrlist.fold il ~init:None (fun acc i ->
      if acc <> None then acc
      else if is_check_jne i then begin
        incr k;
        if !k = idx then Some i else None
      end
      else None)

(* The hottest targets not yet inlined, best first. *)
let hottest (s : site) ~limit : int list =
  Hashtbl.fold (fun tgt n acc -> (n, tgt) :: acc) s.counts []
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.filter_map (fun (_, tgt) ->
         if List.mem tgt s.inlined then None else Some tgt)
  |> List.filteri (fun i _ -> i < limit)

(* Rewrite the trace so this check's miss path walks a chain of
   compare-plus-direct-branch pairs for the hot targets before falling
   back to profiling + lookup.  The chain lives in the jne's custom
   stub — the "code sequence at the bottom of the trace" of Figure 4 —
   so the inlined-target hit path pays nothing. *)
let rewrite (t : t) (ctx : context) (s : site) =
  match Rio.Api.decode_fragment ctx s.s_tag with
  | None -> ()
  | Some il -> (
      match find_check il s.s_idx with
      | None -> ()
      | Some jne ->
          let flags_saved = stub_restores_flags jne in
          let slot = Rio.Api.ibl_target_opnd ctx in
          let fslot =
            Operand.mem_abs (tls_addr ~tid:ctx.ts.ts_tid ~slot:slot_eflags)
          in
          let budget = t.params.max_inline - List.length s.inlined in
          let hot = hottest s ~limit:budget in
          if hot <> [] then begin
            let existing, always =
              match Rio.Api.get_custom_stub jne with
              | Some (sil, a) -> (sil, a)
              | None -> (Rio.Instrlist.create (), false)
            in
            let stub = Rio.Instrlist.create () in
            List.iter
              (fun target ->
                let c = Rio.Create.cmp slot (Operand.Imm target) in
                let je = Rio.Create.jcc Cond.Z target in
                if flags_saved then begin
                  (* the application's flags must be restored on the
                     way out to the hot target *)
                  let restore = Rio.Instrlist.create () in
                  Rio.Instrlist.append restore (Rio.Create.push fslot);
                  Rio.Instrlist.append restore (Rio.Create.popf ());
                  Rio.Api.set_custom_stub ~always:true je restore
                end;
                Rio.Instrlist.append stub c;
                Rio.Instrlist.append stub je;
                s.inlined <- target :: s.inlined;
                t.pairs_inserted <- t.pairs_inserted + 1)
              hot;
            (* then the original stub: profiling call (+ flags restore)
               ahead of the hashtable lookup *)
            Rio.Instrlist.append_all ~dst:stub existing;
            Rio.Api.set_custom_stub ~always jne stub;
            if Rio.Api.replace_fragment ctx s.s_tag il then begin
              s.rewrites <- s.rewrites + 1;
              t.total_rewrites <- t.total_rewrites + 1
            end
          end)

let profile_call (t : t) (s : site) : ccall_fn =
 fun ctx ->
  let target = Rio.Api.read_ibl_target ctx in
  Hashtbl.replace s.counts target
    (1 + Option.value (Hashtbl.find_opt s.counts target) ~default:0);
  s.total <- s.total + 1;
  if s.total mod t.params.sample_threshold = 0 then rewrite t ctx s

(* Trace hook: hang a profiling clean call off every inline check's
   miss path (prepended to its stub). *)
let instrument_trace (t : t) (ctx : context) ~tag (il : Rio.Instrlist.t) =
  let idx = ref (-1) in
  Rio.Instrlist.iter il (fun i ->
      if is_check_jne i then begin
        incr idx;
        let key = (ctx.ts.ts_tid, tag, !idx) in
        let s =
          match Hashtbl.find_opt t.sites key with
          | Some s -> s
          | None ->
              let s =
                {
                  s_tag = tag;
                  s_idx = !idx;
                  counts = Hashtbl.create 8;
                  total = 0;
                  inlined = [];
                  rewrites = 0;
                }
              in
              Hashtbl.replace t.sites key s;
              s
        in
        let existing, always =
          match Rio.Api.get_custom_stub i with
          | Some (sil, a) -> (sil, a)
          | None -> (Rio.Instrlist.create (), false)
        in
        let stub = Rio.Instrlist.create () in
        Rio.Instrlist.append stub (Rio.Api.clean_call ctx.rt (profile_call t s));
        Rio.Instrlist.append_all ~dst:stub existing;
        Rio.Api.set_custom_stub ~always i stub;
        t.checks_instrumented <- t.checks_instrumented + 1
      end)

let make ?(params = default_params) () : client =
  let t = { (fresh ()) with params } in
  {
    null_client with
    name = "ibdispatch";
    trace_hook = Some (fun ctx ~tag il -> instrument_trace t ctx ~tag il);
    exit_hook =
      (fun rt ->
        Rio.Api.printf rt
          "ibdispatch: %d checks instrumented, %d rewrites, %d dispatch pairs\n"
          t.checks_instrumented t.total_rewrites t.pairs_inserted);
  }

(** Runtime cache auditor (S34): validates DESIGN.md §6 invariants 7
    (cache/link consistency) and 8 (fragment linearity) over the live
    code cache, plus a per-fragment byte checksum that catches
    arbitrary corruption of emitted code.

    The checksum is FNV-1a over the fragment's whole cache image
    [entry, total_end), reduced mod 2^62.  Every step
    [h' = (h lxor byte) * prime] is a bijection on the state space
    (xor with a byte is an involution; multiplication by an odd prime
    is invertible mod a power of two), so {e any} single-byte
    substitution is guaranteed — not merely likely — to change the
    final hash.  Legitimate byte patches (linking, unlinking, fragment
    replacement) refresh the stored checksum; the fault injector
    deliberately does not. *)

open Isa
open Types

let fnv_offset = 0x811c9dc5
let fnv_prime = 0x01000193
let state_mask = (1 lsl 62) - 1

(* One FNV-1a step: per byte for checksums, per int for
   [runtime.emit_digest]. *)
let mix h v = (h lxor v) * fnv_prime land state_mask

let checksum_bytes (b : Bytes.t) : int =
  let h = ref fnv_offset in
  for i = 0 to Bytes.length b - 1 do
    h := mix !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let fragment_checksum (rt : runtime) (f : fragment) : int =
  checksum_bytes
    (Vm.Memory.read_bytes (Vm.Machine.mem rt.machine) ~addr:f.entry
       ~len:(f.total_end - f.entry))

(** Record [checksum] as the fragment's current image and fold the
    stamp into [rt.emit_digest]. *)
let stamp (rt : runtime) (f : fragment) (checksum : int) : unit =
  f.checksum <- checksum;
  let kind = match f.kind with Bb -> 0 | Trace -> 1 in
  rt.emit_digest <-
    mix
      (mix (mix (mix (mix rt.emit_digest kind) f.tag) f.entry)
         (f.total_end - f.entry))
      checksum

(** Re-stamp a fragment's checksum after a legitimate byte patch. *)
let refresh (rt : runtime) (f : fragment) : unit =
  if not f.deleted then stamp rt f (fragment_checksum rt f)

(* ------------------------------------------------------------------ *)
(* Per-fragment validation                                            *)
(* ------------------------------------------------------------------ *)

let branch_target fetch pc =
  match Decode.full fetch pc with
  | Ok (insn, _) when Insn.is_cti insn && Insn.num_srcs insn > 0 -> (
      match Insn.src insn 0 with Operand.Target t -> Some t | _ -> None)
  | _ -> None

(** First violation found in [f], or [None].  Checks, in order:
    bytes unchanged since the last legitimate patch (checksum); every
    exit's branch and stub-jump bytes agree with its link state and
    linked targets are live with symmetric incoming entries
    (invariant 7); the body and stubs decode linearly with control
    transfers only at registered exit sites (invariant 8). *)
let check_fragment (rt : runtime) (f : fragment) : string option =
  let fetch = Vm.Memory.fetch (Vm.Machine.mem rt.machine) in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  if fragment_checksum rt f <> f.checksum then
    fail "fragment 0x%x: cache bytes differ from checksummed image" f.tag;
  Array.iter
    (fun e ->
      (match e.linked with
       | Some tgt ->
           if tgt.deleted then
             fail "fragment 0x%x: exit %d linked to deleted fragment 0x%x" f.tag
               e.exit_id tgt.tag
           else if not (List.memq e tgt.incoming) then
             fail "fragment 0x%x: exit %d missing from 0x%x's incoming list"
               f.tag e.exit_id tgt.tag
       | None -> ());
      let expected_branch =
        match e.linked with
        | Some tgt when not e.always_through_stub -> tgt.entry
        | _ -> e.stub_pc
      in
      (match branch_target fetch e.branch_pc with
       | Some t when t = expected_branch -> ()
       | Some t ->
           fail "fragment 0x%x: exit %d branch targets 0x%x, expected 0x%x"
             f.tag e.exit_id t expected_branch
       | None ->
           fail "fragment 0x%x: exit %d branch not decodable" f.tag e.exit_id);
      let expected_stub_jmp =
        match e.linked with
        | Some tgt when e.always_through_stub -> tgt.entry
        | _ -> token_of_exit e
      in
      match branch_target fetch e.stub_jmp_pc with
      | Some t when t = expected_stub_jmp -> ()
      | Some t ->
          fail "fragment 0x%x: exit %d stub jmp targets 0x%x, expected 0x%x"
            f.tag e.exit_id t expected_stub_jmp
      | None ->
          fail "fragment 0x%x: exit %d stub jmp not decodable" f.tag e.exit_id)
    f.exits;
  List.iter
    (fun e ->
      match e.linked with
      | Some tgt when tgt == f -> ()
      | _ ->
          fail "fragment 0x%x: incoming list holds exit %d not linked to it"
            f.tag e.exit_id)
    f.incoming;
  (* linearity: decode the whole image; CTIs only at exit sites *)
  if !err = None then begin
    let allowed = Hashtbl.create 8 in
    Array.iter
      (fun e ->
        Hashtbl.replace allowed e.branch_pc ();
        Hashtbl.replace allowed e.stub_jmp_pc ())
      f.exits;
    let pc = ref f.entry in
    while !err = None && !pc < f.total_end do
      match Decode.full fetch !pc with
      | Error e ->
          fail "fragment 0x%x: undecodable at 0x%x: %s" f.tag !pc
            (Decode.error_to_string e)
      | Ok (insn, len) ->
          if
            Insn.is_cti insn
            && insn.Insn.opcode <> Opcode.Hlt
            && not (Hashtbl.mem allowed !pc)
          then
            fail "fragment 0x%x: stray control transfer at 0x%x" f.tag !pc;
          pc := !pc + len
    done
  end;
  !err

(* ------------------------------------------------------------------ *)
(* Whole-cache audit                                                  *)
(* ------------------------------------------------------------------ *)

let live_fragments (rt : runtime) : fragment list =
  let acc = ref [] in
  List.iter
    (fun ts ->
      let add _ f = if not f.deleted then acc := f :: !acc in
      Fragindex.iter_bbs ts.index add;
      Fragindex.iter_traces ts.index add)
    rt.thread_states;
  (* deterministic order regardless of hashtable iteration *)
  List.sort (fun a b -> compare a.entry b.entry) !acc

(** Audit every live fragment.  Returns the first offender (in cache
    layout order) so the dispatcher's recovery ladder can act on it.
    Charges the modelled per-fragment audit cost. *)
let run (rt : runtime) : (unit, fragment * string) result =
  rt.stats.Stats.audits_run <- rt.stats.Stats.audits_run + 1;
  let frags = live_fragments rt in
  rt.stats.Stats.audit_fragments <-
    rt.stats.Stats.audit_fragments + List.length frags;
  charge rt
    (List.length frags * rt.opts.Options.costs.Options.audit_per_fragment);
  let rec go = function
    | [] -> Ok ()
    | f :: tl -> (
        match check_fragment rt f with
        | None -> go tl
        | Some msg ->
            log_flow rt "audit: %s" msg;
            Error (f, msg))
  in
  go frags

module For_testing = struct
  let check_fragment = check_fragment
end

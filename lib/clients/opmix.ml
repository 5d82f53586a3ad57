(** Dynamic opcode-mix statistics (§7's "statistics gathering").

    Counts how many times each opcode executes, using the low-overhead
    recipe: one transparently-allocated in-cache counter per (block,
    opcode-class) pair, incremented by emitted code — no clean calls on
    the hot path.  Block-level static opcode counts are folded with the
    per-block execution counters at exit time, giving exact dynamic
    counts at near-zero cost. *)

open Isa
open Rio.Types

type t = {
  (* per-tag: execution counter address + static opcode histogram *)
  blocks : (int, int * (Opcode.t * int) list) Hashtbl.t;
  mutable rt : runtime option;
}

let fresh () = { blocks = Hashtbl.create 256; rt = None }

let static_histogram (il : Rio.Instrlist.t) : (Opcode.t * int) list =
  let h = Hashtbl.create 16 in
  Rio.Instrlist.iter il (fun i ->
      if not (Rio.Instr.is_bundle i) then begin
        let op = Rio.Instr.get_opcode i in
        Hashtbl.replace h op (1 + Option.value (Hashtbl.find_opt h op) ~default:0)
      end);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []

let on_bb (t : t) (ctx : context) ~tag (il : Rio.Instrlist.t) =
  t.rt <- Some ctx.rt;
  Rio.Instrlist.split_bundles il;
  let addr =
    match Hashtbl.find_opt t.blocks tag with
    | Some (a, _) -> a
    | None -> Rio.Api.alloc_global ctx.rt ~bytes:4
  in
  (* (re)record the histogram: a rebuilt block may differ (SMC) *)
  Hashtbl.replace t.blocks tag (addr, static_histogram il);
  let ctr = Rio.Api.global_opnd addr in
  let insert i =
    match Rio.Instrlist.first il with
    | Some first -> Rio.Instrlist.insert_before il first i
    | None -> Rio.Instrlist.append il i
  in
  if Rio.Flags_analysis.dead_after (Rio.Instrlist.first il) then
    insert (Rio.Create.inc ctr)
  else begin
    insert (Rio.Create.popf ());
    insert (Rio.Create.inc ctr);
    insert (Rio.Create.pushf ())
  end

(** Dynamic opcode counts, descending. *)
let dynamic_mix (t : t) : (Opcode.t * int) list =
  match t.rt with
  | None -> []
  | Some rt ->
      let h = Hashtbl.create 64 in
      Hashtbl.iter
        (fun _tag (addr, hist) ->
          let execs = Rio.Api.read_global rt addr in
          List.iter
            (fun (op, n) ->
              Hashtbl.replace h op
                ((execs * n) + Option.value (Hashtbl.find_opt h op) ~default:0))
            hist)
        t.blocks;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
      |> List.sort (fun (_, a) (_, b) -> compare b a)

let make () : client * t =
  let t = fresh () in
  ( {
      null_client with
      name = "opmix";
      basic_block = Some (fun ctx ~tag il -> on_bb t ctx ~tag il);
      exit_hook =
        (fun rt ->
          let mix = dynamic_mix t in
          let total = List.fold_left (fun a (_, n) -> a + n) 0 mix in
          Rio.Api.printf rt "opmix: %d instructions executed; top opcodes:\n" total;
          List.iteri
            (fun k (op, n) ->
              if k < 8 then
                Rio.Api.printf rt "  %-8s %9d (%4.1f%%)\n" (Opcode.name op) n
                  (100.0 *. float_of_int n /. float_of_int total))
            mix);
    },
    t )

module For_testing = struct
  let dynamic_mix = dynamic_mix
end

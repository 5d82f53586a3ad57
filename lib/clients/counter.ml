(** Instrumentation example: basic-block and instruction counting.

    Demonstrates the non-optimization uses of the interface (paper §1,
    §7): the static variant only observes code at creation time; the
    dynamic variant inserts a clean call so every {e execution} of
    every basic block is counted — a classic profiling tool. *)

open Rio.Types

type counts = {
  mutable blocks_seen : int;
  mutable static_insns : int;
  mutable dynamic_blocks : int;
  executions : (int, int) Hashtbl.t;  (* tag -> executions (dynamic mode) *)
}

let fresh () =
  { blocks_seen = 0; static_insns = 0; dynamic_blocks = 0; executions = Hashtbl.create 256 }

(** Low-overhead execution counting: instead of a clean call (a full
    context save around a host callback), emit an [inc] on a counter in
    transparently-allocated runtime memory.  The only subtlety is
    eflags: [inc] writes five flags, so the increment is placed bare
    only when the block provably rewrites the flags before reading them
    (the Level-2 liveness analysis again); otherwise it is bracketed
    with a save/restore. *)
let make_emitted () : client * (unit -> (int * int) list) =
  let counters : (int, int) Hashtbl.t = Hashtbl.create 256 in (* tag -> addr *)
  let rt_ref = ref None in
  let bb ctx ~tag (il : Rio.Instrlist.t) =
    rt_ref := Some ctx.rt;
    let addr =
      match Hashtbl.find_opt counters tag with
      | Some a -> a
      | None ->
          let a = Rio.Api.alloc_global ctx.rt ~bytes:4 in
          Hashtbl.replace counters tag a;
          a
    in
    let ctr = Rio.Api.global_opnd addr in
    let flags_dead = Rio.Flags_analysis.dead_after (Rio.Instrlist.first il) in
    let insert i =
      match Rio.Instrlist.first il with
      | Some first -> Rio.Instrlist.insert_before il first i
      | None -> Rio.Instrlist.append il i
    in
    if flags_dead then insert (Rio.Create.inc ctr)
    else begin
      (* order: pushf ends up first *)
      insert (Rio.Create.popf ());
      insert (Rio.Create.inc ctr);
      insert (Rio.Create.pushf ())
    end
  in
  let read () =
    match !rt_ref with
    | None -> []
    | Some rt ->
        Hashtbl.fold (fun tag addr acc -> (tag, Rio.Api.read_global rt addr) :: acc)
          counters []
        |> List.sort compare
  in
  ( {
      null_client with
      name = "counter-emitted";
      basic_block = Some bb;
      exit_hook =
        (fun rt ->
          let total = List.fold_left (fun a (_, c) -> a + c) 0 (read ()) in
          Rio.Api.printf rt "counter-emitted: %d block executions (in-cache counters)\n"
            total);
    },
    read )

let make ?(dynamic = false) () : client * counts =
  let c = fresh () in
  let bb ctx ~tag (il : Rio.Instrlist.t) =
    c.blocks_seen <- c.blocks_seen + 1;
    Rio.Instrlist.split_bundles il;
    c.static_insns <- c.static_insns + Rio.Instrlist.length il;
    if dynamic then begin
      let call =
        Rio.Api.clean_call ctx.rt (fun _ctx ->
            c.dynamic_blocks <- c.dynamic_blocks + 1;
            Hashtbl.replace c.executions tag
              (1 + Option.value (Hashtbl.find_opt c.executions tag) ~default:0))
      in
      match Rio.Instrlist.first il with
      | Some first -> Rio.Instrlist.insert_before il first call
      | None -> Rio.Instrlist.append il call
    end
  in
  ( {
      null_client with
      name = "counter";
      basic_block = Some bb;
      exit_hook =
        (fun rt ->
          Rio.Api.printf rt "counter: %d blocks built, %d static instructions\n"
            c.blocks_seen c.static_insns;
          if dynamic then
            Rio.Api.printf rt "counter: %d dynamic block executions\n"
              c.dynamic_blocks);
    },
    c )

module For_testing = struct
  let static_insns c = c.static_insns
  let dynamic_blocks c = c.dynamic_blocks
  let executions c tag = Option.value (Hashtbl.find_opt c.executions tag) ~default:0
  let make_emitted = make_emitted
end

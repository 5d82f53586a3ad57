(** Edge profiler: records the dynamic control-flow graph (basic-block
    tag → successor tag → count) with a clean call at every block
    entry.  A heavier-weight instrumentation example in the spirit of
    the paper's "profiling, statistics gathering" use cases; its output
    identifies the hot paths traces should capture. *)

open Rio.Types

type t = {
  edges : (int * int, int) Hashtbl.t;
  mutable last : (int * int) list;  (* per tid: last tag executed *)
}

let fresh () = { edges = Hashtbl.create 1024; last = [] }

let record (t : t) ~tid ~tag =
  (match List.assoc_opt tid t.last with
   | Some prev ->
       Hashtbl.replace t.edges (prev, tag)
         (1 + Option.value (Hashtbl.find_opt t.edges (prev, tag)) ~default:0)
   | None -> ());
  t.last <- (tid, tag) :: List.remove_assoc tid t.last

let edge_count t = Hashtbl.length t.edges

(** The [n] hottest edges, descending. *)
let hot_edges (t : t) n =
  Hashtbl.fold (fun e c acc -> (c, e) :: acc) t.edges []
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.filteri (fun i _ -> i < n)
  |> List.map (fun (c, (a, b)) -> (a, b, c))

let make () : client * t =
  let t = fresh () in
  ( {
      null_client with
      name = "edgeprof";
      basic_block =
        Some
          (fun ctx ~tag il ->
            let call =
              Rio.Api.clean_call ctx.rt (fun cctx ->
                  record t ~tid:cctx.ts.ts_tid ~tag)
            in
            match Rio.Instrlist.first il with
            | Some first -> Rio.Instrlist.insert_before il first call
            | None -> Rio.Instrlist.append il call);
      exit_hook =
        (fun rt ->
          let top = hot_edges t 5 in
          Rio.Api.printf rt "edgeprof: %d distinct edges; hottest:\n"
            (Hashtbl.length t.edges);
          List.iter
            (fun (a, b, c) ->
              Rio.Api.printf rt "  0x%x -> 0x%x : %d\n" a b c)
            top);
    },
    t )

(** Edge profiler: records the dynamic control-flow graph (basic-block
    tag → successor tag → count) with a clean call at every block
    entry.  A heavier-weight instrumentation example in the spirit of
    the paper's "profiling, statistics gathering" use cases; its output
    identifies the hot paths traces should capture. *)

type t = {
  edges : (int * int, int) Hashtbl.t;
  mutable last : (int * int) list;  (* per tid: last tag executed *)
}

val hot_edges : t -> int -> (int * int * int) list
(** The [n] hottest edges, descending. *)

val make : unit -> Rio.Types.client * t

(** Edge profiler: records the dynamic control-flow graph (basic-block
    tag → successor tag → count) with a clean call at every block
    entry.  A heavier-weight instrumentation example in the spirit of
    the paper's "profiling, statistics gathering" use cases; its output
    identifies the hot paths traces should capture. *)

type t

val edge_count : t -> int
(** Distinct edges recorded. *)

val hot_edges : t -> int -> (int * int * int) list
(** The [n] hottest edges, descending. *)

val make : unit -> Rio.Types.client * t

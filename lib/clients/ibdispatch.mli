(** Adaptive indirect-branch dispatch (paper §4.3, Figure 4). *)

type params = { sample_threshold : int; max_inline : int }

val default_params : params

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

val make : ?params:params -> unit -> Rio.Types.client

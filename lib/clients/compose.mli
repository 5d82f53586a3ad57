(** Client composition: run several clients as one. *)

val compose : ?name:string -> Rio.Types.client list -> Rio.Types.client
(** One client whose hooks run each given client's hooks in list
    order; for [end_trace] the first decision other than [Default_end]
    wins. *)

val all_four : unit -> Rio.Types.client
(** The paper's §5 "all four sample optimizations at once".  Fresh
    client instances each call (profiling state is per-run).  Order:
    custom traces shape trace creation and elide returns first; RLR
    then strength-reduction clean up the body; ibdispatch instruments
    the remaining indirect checks last so its check indices are stable
    under its own rewrites. *)

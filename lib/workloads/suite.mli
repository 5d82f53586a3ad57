(** The synthetic SPEC2000-like benchmark suite: 12 integer + 8
    floating-point workloads (see DESIGN.md §2 for the substitution
    rationale). *)

val all : Workload.t list
val by_name : string -> Workload.t option

(** The synthetic SPEC2000-like benchmark suite (see DESIGN.md §2 for
    the substitution rationale: these model the *behavioural
    characters* Figure 5's shape depends on). *)

let all : Workload.t list =
  [
    (* integer *)
    Gzip_like.workload;
    Vpr_like.workload;
    Parser_like.workload;
    Gcc_like.workload;
    Mcf_like.workload;
    Crafty_like.workload;
    Eon_like.workload;
    Perlbmk_like.workload;
    Gap_like.workload;
    Vortex_like.workload;
    Bzip2_like.workload;
    Twolf_like.workload;
    (* floating point *)
    Wupwise_like.workload;
    Swim_like.workload;
    Mgrid_like.workload;
    Applu_like.workload;
    Mesa_like.workload;
    Art_like.workload;
    Equake_like.workload;
    Ammp_like.workload;
  ]

let by_name name =
  List.find_opt (fun w -> w.Workload.name = name) all


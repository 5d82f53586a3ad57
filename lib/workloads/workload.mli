(** Workload infrastructure: synthetic SPEC2000-like programs and
    helpers to run them natively, emulated, or under the RIO runtime.
    Every workload finishes by writing a checksum to the output port,
    so observational-equivalence tests can compare executions exactly. *)

type t = {
  name : string;
  spec_name : string;      (** the SPEC2000 benchmark this models *)
  fp : bool;
  description : string;
  program : Asm.Ast.program;
  input : int list;        (** values served by the [in] port *)
}

val make :
  name:string ->
  spec_name:string ->
  fp:bool ->
  description:string ->
  ?input:int list ->
  Asm.Ast.program ->
  t

(** {2 Deterministic pseudo-random data for data segments} *)

val lcg : ?seed:int -> int -> int list
val lcg_mod : ?seed:int -> int -> int -> int list
val lcg_floats : ?seed:int -> int -> float list

(** {2 Request parameterization (serving)} *)

val request_input : seed:int -> int list
(** The four per-request input words the {!serving_variant} preamble
    consumes, derived deterministically from the request seed. *)

val with_input : t -> int list -> t

val serving_variant : t -> t
(** Wrap a workload for serving: a fixed preamble folds the four
    request words into an output fingerprint, then jumps to the
    original entry.  The text is identical across request seeds, so a
    warm code cache carries over between requests. *)

(** {2 Running} *)

type run_result = {
  output : int list;
  cycles : int;
  insns : int;
  ok : bool;
  detail : string;
}

val run_native :
  ?family:Vm.Cost.family -> ?emulate:bool -> t -> run_result

val run_rio :
  ?family:Vm.Cost.family ->
  ?opts:Rio.Options.t ->
  ?client:Rio.Types.client ->
  t ->
  run_result * Rio.t

(** {2 Serving-pool plumbing} *)

val pool_boots :
  ?client:(unit -> Rio.Types.client) ->
  ?cache_dir:string ->
  opts:(string -> Rio.Options.t) ->
  t list ->
  (string * Rio.Pool.boot) list
(** One pool boot per workload, its image assembled once and
    cold-loaded into a fresh machine per instance.  [opts] maps a
    workload name to its engine options (a bundle's per-workload
    overrides); [client] builds each instance's client (default: the
    null client); with [cache_dir] every new instance warm-boots from
    {!Rio.Pool.cache_file_name} of its key there. *)

val request_maker :
  native:(t -> int list) -> t list -> seed_base:int -> int -> Rio.Pool.request list
(** [request_maker ~native wls ~seed_base n]: [n] requests with ids
    [0 .. n-1]; request [i] runs the workload at position
    [i mod List.length wls] at seed [seed_base + i] and expects
    [native] of that workload on the request's input. *)

(** Configuration bundles as a first-class artifact (DESIGN.md §6.9). *)

(** Where a bundle came from.  Informational only: excluded from
    {!digest} so re-stamping provenance never changes identity. *)
type provenance = {
  pv_created_by : string;  (** producer, e.g. ["autotune"] or ["hand"] *)
  pv_created_at : string;  (** timestamp or build tag, free-form *)
  pv_objective : string;   (** objective the bundle was tuned against *)
  pv_note : string;
}

val default_provenance : provenance

type t = {
  b_opts : Options.t;                (** engine knobs, incl. cost model *)
  b_pool : Options.pool_opts;        (** pool sizing / supervision *)
  b_overrides : (string * int) list;
      (** per-workload-key opt-level overrides, kept sorted by key *)
  b_provenance : provenance;
}

type error =
  | Io_error of string         (** file could not be read/written *)
  | Parse_error of string      (** malformed JSON *)
  | Unknown_key of string      (** object key not in the schema, path-qualified *)
  | Bad_value of string * string  (** field path, what is wrong with it *)
  | Stale_version of int       (** [bundle_version] ≠ {!format_version} *)
  | Invalid_bundle of string   (** rejected by options/pool validation *)

val error_to_string : error -> string

val digest : t -> int
(** Stable identity of a bundle: FNV-1a over the canonical printed
    payload.  Reordering fields in the file, re-indenting it, or
    editing provenance leaves the digest unchanged; changing any knob
    or override changes it. *)

val to_json : t -> Json.t

val to_string : t -> string

val opts_for : t -> string -> Options.t
(** Engine options actually used when booting workload [key]: the
    bundle's base options with the per-workload opt-level override
    applied.  Demoting to level 0 turns the optimizer fully off, so
    level-gated knobs ([opt_enable], [reopt_threshold]) are dropped
    along with it — the projected configuration is always valid when
    the base one is. *)

val validate : t -> (unit, error) result
(** Semantic validation of an assembled bundle: the base options, the
    pool block, and every override-projected configuration must pass
    the {!Options} validators. *)

val of_json : Json.t -> (t, error) result

val of_string : string -> (t, error) result

val load : string -> (t, error) result

val save : string -> t -> (unit, error) result

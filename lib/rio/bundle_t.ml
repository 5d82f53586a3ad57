(* The types of {!Bundle}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

(** Where a bundle came from.  Informational only: excluded from
    {!digest} so re-stamping provenance never changes identity. *)
type provenance = {
  pv_created_by : string;  (** producer, e.g. ["autotune"] or ["hand"] *)
  pv_created_at : string;  (** timestamp or build tag, free-form *)
  pv_objective : string;   (** objective the bundle was tuned against *)
  pv_note : string;
}

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

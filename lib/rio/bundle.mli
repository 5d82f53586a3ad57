(** Configuration bundles as a first-class artifact (DESIGN.md §6.9). *)

include module type of struct include Bundle_t end

val default_provenance : provenance

val error_to_string : error -> string

val digest : t -> int
(** Stable identity of a bundle: FNV-1a over the canonical printed
    payload.  Reordering fields in the file, re-indenting it, or
    editing provenance leaves the digest unchanged; changing any knob
    or override changes it. *)

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

val load : string -> (t, error) result

val save : string -> t -> (unit, error) result

(** Test hooks: the codec pair under {!load} and {!save}. *)
module For_testing : sig
  val to_json : t -> Json.t

  val of_json : Json.t -> (t, error) result

  val to_string : t -> string

  val of_string : string -> (t, error) result
end

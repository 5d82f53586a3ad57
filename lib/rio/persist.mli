(** Persistent code cache: serialize a warm runtime's fragments —
    bodies plus typed relocation tables — the fragment index's
    application knowledge (trace-head counters, successor profiles,
    despeculation verdicts), and re-materialize them into a fresh
    runtime so a new serving instance warm-boots instead of
    re-discovering every hot trace (DESIGN.md §6.8). *)

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated  (** unreadable, or shorter than a header and checksum *)
  | Checksum_mismatch
  | Options_mismatch
  | Image_mismatch
  | Malformed of Codec.error
      (** a checksum-valid payload that does not decode: a bad tag, a
          count, offset or ordinal out of range, trailing bytes *)

val error_to_string : error -> string

(** What a successful load did: fragments skipped are those that did
    not fit the loading runtime's (possibly smaller) cache region. *)
type summary = { fragments : int; skipped : int }

val save : Types.runtime -> image_digest:int -> path:string -> int
(** Serialize the runtime's warm state to [path] (written atomically
    via a temporary file).  [image_digest] is the {!Asm.Image.digest}
    of the program the cache was built over; load refuses anything
    else.  Returns the number of fragments persisted. *)

val load :
  Types.runtime ->
  image_digest:int -> path:string -> (summary, error) result
(** Load a cache image saved by {!save} into a freshly created runtime
    (no requests served yet).  Refuses images whose options bundle or
    program digest disagree with this runtime, and anything corrupted,
    truncated, or version-skewed — always with a typed error, never an
    exception.  The payload is decoded whole before anything is
    materialized, so a refused image leaves the runtime untouched.  On
    success every re-materialized fragment is indexed, unlinked, and
    audit-checksummed; the machine's thread list is left clean for the
    first request. *)

(** The one binary codec under the runtime's two external formats,
    serving frames ({!Wire}) and cache images ({!Persist}): a writer
    over [Buffer.t], a bounded cursor over a string, and one typed
    decode error.  Integers are little-endian, varints unsigned
    LEB128, tags one byte.  A cursor read past its limit, an unknown
    tag, or a value the format cannot hold raises {!Error}, which
    {!decode} turns into a result. *)

type error =
  | Truncated of int  (** input ended inside the field at this byte *)
  | Bad_tag of { field : string; value : int }
  | Too_long of int  (** the varint at this byte does not fit a non-negative int *)
  | Out_of_range of { field : string; value : int }
      (** a count, length, offset or ordinal the format forbids *)
  | Trailing of int  (** bytes left after the last field *)

val error_to_string : error -> string

exception Error of error

val fnv32 : string -> pos:int -> len:int -> int
(** FNV-1a, 32 bits, over [len] bytes from [pos]: the runtime's one
    content hash (image checksums, option and bundle digests). *)

type 'a enum
(** A tag's code table, stated once: {!put_enum} and {!enum_of} both
    derive from it. *)

val enum : string -> ('a * int) list -> 'a enum
(** [enum field codes]; [field] names the tag in [Bad_tag] errors. *)

(** {2 Writer} *)

val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_varint : Buffer.t -> int -> unit
val put_bool : Buffer.t -> bool -> unit
val put_str16 : Buffer.t -> string -> unit
(** A [u16] length, then the bytes. *)

val put_enum : 'a enum -> Buffer.t -> 'a -> unit

(** {2 Cursor} *)

type cursor

val u32 : cursor -> int
val i64 : cursor -> int
val varint : cursor -> int
val bool : cursor -> bool
val str16 : cursor -> string
val raw : cursor -> int -> string
(** [raw c n]: the next [n] bytes. *)

val enum_of : 'a enum -> cursor -> 'a

val check : field:string -> lo:int -> hi:int -> int -> int
(** [v] when [lo <= v < hi], else [Out_of_range]. *)

val list :
  field:string -> max:int -> (cursor -> int) -> (cursor -> 'a) -> cursor ->
  'a list
(** [list ~field ~max count item]: a count of at most [max], then that
    many items. *)

val decode :
  ?pos:int -> ?limit:int -> (cursor -> 'a) -> string -> ('a, error) result
(** Run a decoder over [s] from [pos] (default 0) to [limit] (default
    the end); it must consume exactly that span. *)

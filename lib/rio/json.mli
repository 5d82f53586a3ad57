(** The project's one JSON dialect: objects, arrays, strings, ints,
    floats, bools and null, printed and parsed here with no external
    dependency.  Configuration bundles ({!Bundle}) and the bench
    harness's datapoints both go through it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?digits:int -> t -> string
(** The printed document, newline-terminated. *)

val of_string : string -> (t, string) result
(** Recursive-descent parser for the dialect above.  Errors carry a
    1-based line number.  Duplicate object keys are rejected (they
    would make round-tripping ambiguous). *)

(** Runtime statistics, kept per {!Rio} instance. *)

include module type of struct include Stats_t end

val hist_create : unit -> hist
val hist_add : hist -> int -> unit

val hist_percentile : hist -> int -> int
(** The [q]-th percentile (0..100) as a bucket upper bound: the value
    [v] such that at least [ceil (q/100 * n)] samples are <= [v].
    Returns 0 on an empty histogram. *)

val create : unit -> t

val merge : t -> t -> t
(** A fresh record combining two instances' counters, for pool-wide
    reports: each row by its merge kind. *)

val pp_report : Options.t -> Format.formatter -> t -> unit
(** The [--stats] report: core and cache always, opt when any pass is on,
    spec at -O3, faults when injection or auditing is on. *)

val keep_code_layout :
  (int -> int -> int -> int -> int -> int -> int -> int -> int -> int ->
   int -> int -> int -> int -> int -> int -> int -> int -> int -> 'a) -> 'a
(** Never called: it keeps [caml_apply19] linked, which holds the
    benchmark's code layout (see stats.ml). *)

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val bucket_of : int -> int
  (** Bucket index of a sample: 0 for non-positive values, otherwise the
      position of the highest set bit plus one. *)

  val bucket_upper : int -> int
  (** Inclusive upper bound of a bucket: the largest sample it can hold. *)

  val hist_count : hist -> int

  val recoveries : t -> int
  (** Total recovery-ladder activations, all rungs. *)

  val rows : row list
  (** Every int counter of {!t}, one row each, in report order.  Adding a
      counter means one field, one {!create} entry and one row here;
      {!merge} and {!pp_report} follow from the rows. *)
end

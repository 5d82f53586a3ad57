(** Runtime lifecycle: create a RIO instance over a machine, run the
    application under the code cache, and reset a finished instance
    for reuse on the next request while keeping its cache warm. *)

open Types

type t = runtime

include module type of struct include Engine_t end

val stats : t -> Stats.t

val machine : t -> Vm.Machine.t

val options : t -> Options.t

val flow_log : t -> string list

val create :
  ?opts:Options.t -> ?client:Types.client -> Vm.Machine.t -> t

val enable_flow_log : t -> unit

val set_watchdog : t -> (unit -> bool) option -> unit
(** Arm (or disarm, with [None]) the per-request watchdog.  The probe
    is polled at dispatcher safe points and quantum boundaries; once it
    returns true the run stops with {!Deadline_exceeded} at the next
    fragment boundary.  The pool arms it with a cycle budget and a
    wall-clock bound before each request and disarms it after, so a
    warm instance never carries a stale deadline into the next
    request. *)

val reset_for_reuse :
  t ->
  restore:(Vm.Machine.t -> zeroed:(int * int) list -> (int * int) list) ->
  unit
(** Reset a finished instance so the next request starts from a clean
    machine while the code cache, fragment indexes, and traces stay
    warm.  [restore] re-blits the program-image slices covering the
    just-zeroed pages (see {!Asm.Image.restore}), returning the ranges
    it rewrote.

    Pages the previous request wrote below the cache are zeroed;
    fragments built from bytes on those pages (self-modifying or
    data-resident code) are flushed before the image comes back, so a
    stale body can never serve a tag whose source bytes reverted. *)

val run : t -> outcome
(** Run the whole application under RIO: round-robin over threads,
    dispatching and executing out of thread-private code caches. *)

val save_image : t -> image_digest:int -> path:string -> int
(** Serialize this instance's warm code cache and index knowledge to a
    relocatable on-disk image; see {!Persist.save}.  [image_digest]
    should be {!Asm.Image.digest} of the program being served. *)

val load_image :
  t ->
  image_digest:int ->
  path:string -> (Persist.summary, Persist.error) result
(** Warm-boot a freshly created instance from a saved image; see
    {!Persist.load}.  Must run before the first request. *)

val stop_reason_to_string : stop_reason -> string

(** Test hooks: not part of the runtime's interface. *)
module For_testing : sig
  val make_thread_state : t -> Vm.Machine.thread -> Types.thread_state
end

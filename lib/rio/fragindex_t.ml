(* The types of {!Fragindex}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

(** Two-slot successor histogram for an exit site (the tag of the block
    ending in the CTI), feeding -O3 speculation: slot 1 is kept
    dominant by swap-on-overtake, so [p_n1 * 4 >= p_total * 3] is the
    "monomorphic enough to speculate on" test. *)
type profile = {
  mutable p_t1 : int;          (** most-frequent successor tag *)
  mutable p_n1 : int;          (** its sample count *)
  mutable p_t2 : int;          (** runner-up successor tag *)
  mutable p_n2 : int;          (** its sample count *)
  mutable p_other : int;       (** samples beyond the two slots *)
  mutable p_total : int;       (** all samples *)
}

type 'a entry = {
  key : int;                   (** application tag *)
  mutable fgen : int;          (** fragment-slot generation (internal) *)
  mutable bb : 'a option;      (** basic-block fragment *)
  mutable trace : 'a option;   (** trace fragment *)
  mutable ibl : 'a option;     (** indirect-branch lookup target *)
  mutable head : int;          (** trace-head counter; -1 = not a head *)
  mutable marked : bool;       (** client-marked head (dr_mark_trace_head) *)
  mutable prof : profile option;
      (** successor profile for the site; like head counters it
          describes the application, so it survives fragment flushes *)
  mutable head_cycles : int;
      (** machine-cycle stamp of the head counter's first hit: the
          elapsed cycles per hit at trace-build time separate heads
          that got hot in a tight loop (worth optimizing immediately)
          from heads that merely accumulated hits over the whole run *)
  mutable nospec : bool;
      (** despeculation verdict: a constant-load guard at this site was
          already cut once, so trace building must not fold observed
          constants here again.  Application knowledge, like [prof] —
          survives flushes and travels in saved cache images *)
}

(* The types of {!Wire}, which includes this unit and re-exports
   it; a unit of types alone needs no interface. *)

type client_msg =
  | Run of {
      c_id : int;                  (** client-chosen correlation id *)
      c_key : string;              (** workload key *)
      c_seed : int;
      c_input : int list;
      c_expect : int list option;  (** native reference, if the client has one *)
    }
  | Quit

(** Response status on the wire. *)
type status =
  | St_ok              (** ran to completion, matched any expectation *)
  | St_failed          (** ran but diverged / crashed / hit a deadline *)
  | St_shed            (** admission bound hit: retry later *)
  | St_unknown_key
  | St_quarantined
  | St_stopping

type response = {
  r_id : int;
  r_status : status;
  r_warm : bool;
  r_cycles : int;
  r_output : int list;
}

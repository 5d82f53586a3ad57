(** The SynISA [eflags] register.

    SynISA keeps the six IA-32 arithmetic status flags.  Almost every
    arithmetic instruction writes some subset of them, which — exactly as
    on IA-32 — makes flags the central obstacle for any code
    transformation: inserted code must not clobber flags that later
    application code reads.  The DynamoRIO Level-2 representation exists
    precisely to answer "does this instruction touch eflags?" cheaply.

    A flag set is represented as a bit mask ([int]); the [read_*] /
    [write_*] masks below use the same bit positions shifted into
    separate read/write halves, mirroring the paper's
    [EFLAGS_READ_CF] / [EFLAGS_WRITE_CF] constants. *)

type flag = CF | PF | AF | ZF | SF | OF

let all_flags = [ CF; PF; AF; ZF; SF; OF ]

let bit = function
  | CF -> 0x01
  | PF -> 0x04
  | AF -> 0x10
  | ZF -> 0x40
  | SF -> 0x80
  | OF -> 0x800

let flag_name = function
  | CF -> "CF"
  | PF -> "PF"
  | AF -> "AF"
  | ZF -> "ZF"
  | SF -> "SF"
  | OF -> "OF"

(* ------------------------------------------------------------------ *)
(* Flag-register values                                               *)
(* ------------------------------------------------------------------ *)

type t = int
(** A concrete eflags value: the OR of [bit f] for each set flag. *)

let empty = 0
let is_set (fl : t) (f : flag) = fl land bit f <> 0
let set (fl : t) (f : flag) = fl lor bit f
let clear (fl : t) (f : flag) = fl land lnot (bit f)
let update (fl : t) (f : flag) (v : bool) = if v then set fl f else clear fl f

let all_mask = List.fold_left (fun m f -> m lor bit f) 0 all_flags

(* ------------------------------------------------------------------ *)
(* Read/write effect masks (the paper's EFLAGS_READ / EFLAGS_WRITE) *)
(* ------------------------------------------------------------------ *)

type mask = int
(** Effect mask: low 12 bits = flags read, next 12 bits = flags written. *)

let write_shift = 12
let read_of (f : flag) : mask = bit f
let write_of (f : flag) : mask = bit f lsl write_shift

let reads (fs : flag list) : mask = List.fold_left (fun m f -> m lor read_of f) 0 fs
let writes (fs : flag list) : mask = List.fold_left (fun m f -> m lor write_of f) 0 fs

let read_all : mask = reads all_flags
let write_all : mask = writes all_flags
let none : mask = 0

let union (a : mask) (b : mask) = a lor b

let reads_flag (m : mask) (f : flag) = m land read_of f <> 0
let writes_flag (m : mask) (f : flag) = m land write_of f <> 0

let read_set (m : mask) = List.filter (reads_flag m) all_flags
let write_set (m : mask) = List.filter (writes_flag m) all_flags

(** [read_mask m] is the set of flags read, as a flag-register bit mask. *)
let read_mask (m : mask) : int = m land all_mask

(** [write_mask m] is the set of flags written, as a flag-register bit mask. *)
let write_mask (m : mask) : int = (m lsr write_shift) land all_mask

let pp_mask ppf (m : mask) =
  let show fs = String.concat "" (List.map flag_name fs) in
  let r = read_set m and w = write_set m in
  match (r, w) with
  | [], [] -> Fmt.string ppf "-"
  | _ -> Fmt.pf ppf "%s%s%s" (if r <> [] then "R" ^ show r else "")
           (if r <> [] && w <> [] then " " else "")
           (if w <> [] then "W" ^ show w else "")

module For_testing = struct
  let write_set = write_set
end

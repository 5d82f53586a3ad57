(** [InstrList]: the linear code sequence DynamoRIO manipulates
    (paper §3.1).  A doubly-linked list of {!Instr.t}, single entrance,
    no internal join points.  All basic blocks and traces are
    represented this way; the linearity is what keeps client analyses
    cheap. *)

type t = {
  id : int;
  mutable first : Instr.t option;
  mutable last : Instr.t option;
  mutable count : int;
}

(* atomic so lists created from different domains (one Rio instance
   per worker domain) never share an id, which would confuse the
   owner checks below *)
let next_id = Atomic.make 1

let create () =
  { id = Atomic.fetch_and_add next_id 1; first = None; last = None; count = 0 }

let first t = t.first
let last t = t.last
let length t = t.count

let prev (i : Instr.t) = i.Instr.prev

let check_unowned (i : Instr.t) =
  if i.Instr.owner <> 0 then invalid_arg "Instrlist: instr already in a list"

let append t (i : Instr.t) =
  check_unowned i;
  i.Instr.owner <- t.id;
  i.Instr.prev <- t.last;
  i.Instr.next <- None;
  (match t.last with
   | Some l -> l.Instr.next <- Some i
   | None -> t.first <- Some i);
  t.last <- Some i;
  t.count <- t.count + 1

let prepend t (i : Instr.t) =
  check_unowned i;
  i.Instr.owner <- t.id;
  i.Instr.next <- t.first;
  i.Instr.prev <- None;
  (match t.first with
   | Some f -> f.Instr.prev <- Some i
   | None -> t.last <- Some i);
  t.first <- Some i;
  t.count <- t.count + 1

let insert_after t (anchor : Instr.t) (i : Instr.t) =
  if anchor.Instr.owner <> t.id then invalid_arg "Instrlist.insert_after: wrong list";
  check_unowned i;
  i.Instr.owner <- t.id;
  i.Instr.prev <- Some anchor;
  i.Instr.next <- anchor.Instr.next;
  (match anchor.Instr.next with
   | Some n -> n.Instr.prev <- Some i
   | None -> t.last <- Some i);
  anchor.Instr.next <- Some i;
  t.count <- t.count + 1

let insert_before t (anchor : Instr.t) (i : Instr.t) =
  if anchor.Instr.owner <> t.id then invalid_arg "Instrlist.insert_before: wrong list";
  check_unowned i;
  i.Instr.owner <- t.id;
  i.Instr.next <- Some anchor;
  i.Instr.prev <- anchor.Instr.prev;
  (match anchor.Instr.prev with
   | Some p -> p.Instr.next <- Some i
   | None -> t.first <- Some i);
  anchor.Instr.prev <- Some i;
  t.count <- t.count + 1

let remove t (i : Instr.t) =
  if i.Instr.owner <> t.id then invalid_arg "Instrlist.remove: wrong list";
  (match i.Instr.prev with
   | Some p -> p.Instr.next <- i.Instr.next
   | None -> t.first <- i.Instr.next);
  (match i.Instr.next with
   | Some n -> n.Instr.prev <- i.Instr.prev
   | None -> t.last <- i.Instr.prev);
  i.Instr.prev <- None;
  i.Instr.next <- None;
  i.Instr.owner <- 0;
  t.count <- t.count - 1

(** [replace t old new_] — swap [new_] into [old]'s position. *)
let replace t (old : Instr.t) (new_ : Instr.t) =
  insert_after t old new_;
  remove t old

let iter t f =
  let rec go = function
    | None -> ()
    | Some (i : Instr.t) ->
        let nxt = i.Instr.next in
        f i;
        go nxt
  in
  go t.first

let iter_rev t f =
  let rec go = function
    | None -> ()
    | Some (i : Instr.t) ->
        let prv = i.Instr.prev in
        f i;
        go prv
  in
  go t.last

let fold t ~init f =
  let acc = ref init in
  iter t (fun i -> acc := f !acc i);
  !acc

let to_list t = List.rev (fold t ~init:[] (fun acc i -> i :: acc))

let exists t p = fold t ~init:false (fun acc i -> acc || p i)

(** Append every instr of [src] to [dst], leaving [src] empty. *)
let append_all ~(dst : t) (src : t) =
  iter src (fun i ->
      remove src i;
      append dst i)

(* ------------------------------------------------------------------ *)
(* Level operations                                                   *)
(* ------------------------------------------------------------------ *)

(** Split every L0 bundle into per-instruction L1 [Instr]s (the L0→L1
    transition of §3.1). *)
let split_bundles (t : t) : unit =
  let rec go = function
    | None -> ()
    | Some (i : Instr.t) ->
        let nxt = i.Instr.next in
        (if Instr.is_bundle i then begin
           let raw, addr = Instr.raw_of i in
           let fetch a = Char.code (Bytes.get raw (a - addr)) in
           let stop = addr + Bytes.length raw in
           let anchor = ref i in
           let pos = ref addr in
           while !pos < stop do
             let len = Isa.Decode.boundary_exn fetch !pos in
             let piece = Bytes.sub raw (!pos - addr) len in
             let single = Instr.of_raw ~addr:!pos piece in
             insert_after t !anchor single;
             anchor := single;
             pos := !pos + len
           done;
           remove t i
         end);
        go nxt
  in
  go t.first

(** Raise every instruction to at least the given level.  [L3] is what
    DynamoRIO uses before running optimizations on a trace: fully
    decoded, raw bits still valid. *)
let decode_to (t : t) (lvl : Level.t) : unit =
  (match lvl with Level.L0 -> () | _ -> split_bundles t);
  iter t (fun i ->
      match lvl with
      | Level.L0 | Level.L1 -> ()
      | Level.L2 -> Instr.uplevel2 i
      | Level.L3 -> Instr.uplevel3 i
      | Level.L4 ->
          Instr.uplevel3 i;
          Instr.invalidate_raw i)


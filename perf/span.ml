(** Monotonic clock, benchmark-side spans, and the self-time report.

    A span brackets one call from the benchmark into a layer of the
    system.  Spans are kept in memory while tracing is on and written as
    JSONL when the run ends; with tracing off, {!with_} is a plain call
    and reads no clock.  Spans inside the library are out of scope: an
    [engine] span covers everything below [Rio.run]. *)

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

type t = {
  id : int;
  layer : string;
  op : string;
  t0 : int;
  t1 : int;
  parent : int;  (** id of the enclosing span, or -1 *)
  req : int;     (** request or run id shared by one operation's spans, or -1 *)
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(** An id for a span recorded later with {!record}, so its children can
    name it as parent before it closes; -1 when tracing is off. *)
let reserve () = if !enabled then fresh_id () else -1

(** Record a span whose interval was measured by the caller; used for
    request round trips, which overlap instead of nesting. *)
let record ?id ?(parent = -1) ?(req = -1) ~layer ~op t0 t1 : unit =
  if !enabled then begin
    let id = match id with Some i when i >= 0 -> i | _ -> fresh_id () in
    recorded := { id; layer; op; t0; t1; parent; req } :: !recorded
  end

(** Run [f] inside a span nested under [parent], by default the
    innermost open span. *)
let with_ ?parent ?(req = -1) layer op f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent =
      match (parent, !open_stack) with
      | Some p, _ -> p
      | None, p :: _ -> p
      | None, [] -> -1
    in
    open_stack := id :: !open_stack;
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      open_stack := List.tl !open_stack;
      recorded := { id; layer; op; t0; t1; parent; req } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let reset () =
  recorded := [];
  open_stack := [];
  next_id := 0

(** Self time per layer in ns over the spans of operations — trees
    rooted in a [gen] span (one program run or request): each span's
    duration minus the part its direct children cover. *)
let self_by_layer () : (string * int) list =
  let by_id = Hashtbl.create 4096 and child_ns = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((try Hashtbl.find child_ns s.parent with Not_found -> 0) + (s.t1 - s.t0)))
    !recorded;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
  in
  let ns = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if (root s).layer = "gen" then begin
        let self = s.t1 - s.t0 - (try Hashtbl.find child_ns s.id with Not_found -> 0) in
        Hashtbl.replace ns s.layer
          ((try Hashtbl.find ns s.layer with Not_found -> 0) + max 0 self)
      end)
    !recorded;
  List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) ns [])

let write_jsonl (path : string) : unit =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"layer\":%S,\"op\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
        s.id s.layer s.op s.t0 s.t1 s.parent s.req)
    (List.rev !recorded);
  close_out oc

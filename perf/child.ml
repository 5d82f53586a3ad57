(** Child processes ([rio_serve]) and the run directory they use.

    Every child is registered until reaped, and {!cleanup} — run at exit,
    on SIGINT/SIGTERM, and when the hard deadline fires — kills the
    survivors, waits for them, and removes the run directory with its
    sockets and cache images. *)

exception Timeout of string

type t = {
  pid : int;
  out : Unix.file_descr;   (** read end of the child's stdout *)
  pending : Buffer.t;      (** stdout read but not yet consumed *)
  mutable reaped : bool;
}

let live : t list ref = ref []
let run_dir : string option ref = ref None

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let reap (c : t) =
  if not c.reaped then begin
    c.reaped <- true;
    (try Unix.close c.out with Unix.Unix_error _ -> ());
    live := List.filter (fun x -> x != c) !live
  end

let kill (c : t) =
  if not c.reaped then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    reap c
  end

let cleanup () =
  List.iter kill !live;
  match !run_dir with
  | Some d ->
      run_dir := None;
      (try remove_tree d with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ()

(** Create the per-run scratch directory [base/run-PID] (relative to the
    working directory, so socket paths stay short). *)
let make_run_dir ~base : string =
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree d;
  Unix.mkdir d 0o755;
  run_dir := Some d;
  d

(** On exit, SIGINT, SIGTERM, or the deadline {!arm} sets: kill every
    child, clean up, and exit without printing a result. *)
let install_guards () =
  at_exit cleanup;
  let bail code _ =
    cleanup ();
    Printf.eprintf "perf: stopped by a signal or the per-workload deadline\n%!";
    exit code
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (bail 3));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (bail 4));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (bail 4));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(** The hard deadline of one workload, in seconds from now. *)
let arm ~secs = ignore (Unix.alarm secs)

let spawn ~(exe : string) (args : string list) : t =
  if not (Sys.file_exists exe) then
    failwith (Printf.sprintf "server executable %s not found (build it first)" exe);
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let c = { pid; out = r; pending = Buffer.create 256; reaped = false } in
  live := c :: !live;
  c

(* Read whatever stdout is available within [timeout] seconds; false at
   EOF. *)
let pull (c : t) ~timeout : bool =
  match Unix.select [ c.out ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> true
  | _ -> (
      let b = Bytes.create 4096 in
      match Unix.read c.out b 0 4096 with
      | 0 -> false
      | n ->
          Buffer.add_subbytes c.pending b 0 n;
          true)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(** Wait for a stdout line containing [needle]; raise {!Timeout} after
    [secs] or when the child closes stdout first. *)
let wait_line (c : t) ~(needle : string) ~(secs : float) : string =
  let deadline = Span.now_ns () + int_of_float (secs *. 1e9) in
  let rec find () =
    let s = Buffer.contents c.pending in
    match String.index_opt s '\n' with
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear c.pending;
        Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
        let contains =
          let n = String.length needle and m = String.length line in
          let rec at k = k + n <= m && (String.sub line k n = needle || at (k + 1)) in
          at 0
        in
        if contains then line else find ()
    | None ->
        let left = float_of_int (deadline - Span.now_ns ()) /. 1e9 in
        if left <= 0.0 then raise (Timeout ("waiting for " ^ needle))
        else if pull c ~timeout:left then find ()
        else raise (Timeout ("child exited before " ^ needle))
  in
  find ()

(** Wait up to [secs] for the child to exit, draining its stdout so it
    never blocks on a full pipe; kill it if it does not exit. *)
let finish (c : t) ~(secs : float) : Unix.process_status =
  let deadline = Span.now_ns () + int_of_float (secs *. 1e9) in
  let rec drain () =
    let left = float_of_int (deadline - Span.now_ns ()) /. 1e9 in
    if left > 0.0 && pull c ~timeout:left then drain ()
  in
  drain ();
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ ->
        if Span.now_ns () > deadline then begin
          kill c;
          raise (Timeout "child did not exit")
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  reap c;
  st

(** Peak resident set of a live process in MB ([VmHWM]). *)
let peak_rss_mb (pid : int) : float =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

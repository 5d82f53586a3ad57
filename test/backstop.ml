(* The hang backstop the test executables share.  [guard ~name ~secs f]
   runs [f] while a watchdog domain waits on a pipe; if [f] has not
   returned within [secs] seconds, the watchdog prints a message naming
   the case and exits the process with status 3, so a deadlock fails
   the run at once instead of waiting for an outer timeout.

   A watchdog domain rather than [Unix.alarm]: an OCaml signal handler
   only runs when some domain polls, and a pool whose workers and
   drainer all sleep on condition variables never does. *)

(* the process's own stderr, saved before Alcotest points fd 2 at each
   case's log file, so the message reaches the terminal *)
let saved_stderr = Unix.dup ~cloexec:true Unix.stderr

let guard ~name ~secs f () =
  let r, w = Unix.pipe ~cloexec:true () in
  let deadline = Unix.gettimeofday () +. float_of_int secs in
  let rec watch () =
    (* a negative timeout would mean "wait forever" *)
    match Unix.select [ r ] [] [] (Float.max 0. (deadline -. Unix.gettimeofday ())) with
    | [], _, _ ->
        let msg = Printf.sprintf "!! %s: HANG — not finished after %d s\n" name secs in
        ignore (Unix.write_substring saved_stderr msg 0 (String.length msg));
        Unix._exit 3
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> watch ()
  in
  let dog = Domain.spawn watch in
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.write_substring w "x" 0 1);
      Domain.join dog;
      Unix.close r;
      Unix.close w)

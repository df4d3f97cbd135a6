(* The daemon under test: the built [dynfo_cli serve] in its own process,
   reached over a Unix socket inside the checkout. *)

module Client = Dynfo_server.Client

type t = { pid : int; sock : string; mutable alive : bool }

let live : t list ref = ref []

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    try Sys.remove d.sock with Sys_error _ -> ()
  end

(* Whatever way the benchmark ends, no daemon outlives it. *)
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~exe ~dir =
  let sock = Filename.concat dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; sock |] Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; sock; alive = true } in
  live := d :: !live;
  d

(* Connect once the socket is up; fails if the daemon exits or takes
   longer than [timeout] seconds to listen. *)
let connect ?(timeout = 60.) d =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Client.connect (`Unix d.sock) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            d.alive <- false;
            failwith "daemon exited before listening");
        if Unix.gettimeofday () > deadline then failwith "daemon did not listen";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Peak resident set of the daemon, in MB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let shutdown d c =
  (try Client.shutdown c with Failure _ | Sys_error _ -> ());
  Client.close c;
  ignore (Unix.waitpid [] d.pid);
  d.alive <- false;
  live := List.filter (fun x -> x != d) !live

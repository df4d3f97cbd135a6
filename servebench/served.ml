(* The served phase: a fresh daemon, an untimed warm-up session, then a
   timed session driven by at most two generator threads with one
   connection each.

   Thread A is a closed loop of update calls, each followed by the
   workload's share of program queries. Thread B, where the workload has
   a query rate, sends program queries on a fixed schedule whatever the
   daemon's state (open loop); each is timed from its scheduled send
   time, so a stall also charges the queries it delayed, and how late
   the generator itself ran is recorded. *)

module Client = Dynfo_server.Client
module Wire = Dynfo_server.Wire

type setup = {
  daemon : Daemon.t;
  client : Client.t;
  session : string;
  setup_s : float;  (** spawn → timed session created, warm-up done *)
  first_ups : float;  (** the warm-up (first) session's updates/s *)
}

(* Spawn, warm up with one whole session of the same program, destroy
   it, and create the session that will be timed. *)
let setup ~exe ~dir (w : Gen.t) =
  let t0 = Stats.now_ns () in
  let daemon = Daemon.spawn ~exe ~dir in
  let client = Daemon.connect daemon in
  let create () = Client.create client ~program:w.program_name ~size:w.size () in
  let warm = create () in
  let tw0 = Stats.now_ns () in
  let n =
    Array.fold_left
      (fun n reqs -> n + fst (Client.update client ~session:warm reqs))
      0 w.warmup
  in
  let tw1 = Stats.now_ns () in
  Client.destroy client ~session:warm;
  let session = create () in
  let t1 = Stats.now_ns () in
  {
    daemon;
    client;
    session;
    setup_s = Stats.s_between t0 t1;
    first_ups = float n /. Stats.s_between tw0 tw1;
  }

type result = {
  update_lat : Stats.series;  (** µs per update call, send → reply *)
  applied_reqs : Stats.series;  (** requests applied by each update call *)
  query_lat : Stats.series;  (** µs per query on the update connection *)
  open_lat : Stats.series;  (** µs per open-loop query, scheduled send → reply *)
  late : Stats.buf;  (** µs the open-loop sender ran behind schedule *)
  sent : Gen.call array;  (** update calls in send order (retries twice) *)
  accepted : bool array;  (** per sent call: did the daemon apply it *)
  queries : Check.query list;
  query_calls : int;  (** queries sent *)
  applied : int;  (** requests the daemon reported applied *)
  wall_s : float;  (** first send → last reply of the update loop *)
  errors : int;  (** error replies *)
  refused : int;  (** calls the connection failed to carry *)
  stats : Client.stats;  (** the timed session's daemon-side counters *)
  rss_mb : float;
}

let ok_fields (r : Wire.resp) = if r.r_ok then Some r.r_fields else None

let bool_result fields =
  Option.bind (List.assoc_opt "result" fields) Dynfo_server.Json.to_bool

let timed ~seconds (w : Gen.t) (s : setup) =
  let sent_count = Atomic.make 0 in
  let done_count = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let refused = Atomic.make 0 in
  let qlock = Mutex.create () in
  let queries = ref [] in
  let query_lat = Stats.series () and open_lat = Stats.series () in
  let add_query q series ~at lat =
    Mutex.protect qlock (fun () ->
        queries := q :: !queries;
        Stats.record series ~at lat)
  in
  let update_lat = Stats.series () in
  let late = Stats.buf () in
  let sent = ref [] in
  let accepted = ref [] in
  let applied = ref 0 in
  let applied_reqs = Stats.series () in
  let t_start = Stats.now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let c = s.client in
  let session = s.session in
  (* one update call, possibly with its pipelined retry *)
  let update_call (call : Gen.call) =
    let copies = if call.retry then 2 else 1 in
    let t0 = Stats.now_ns () in
    for _ = 1 to copies do
      Atomic.incr sent_count;
      sent := call :: !sent;
      ignore (Client.send c (Wire.Update { session; reqs = call.reqs }))
    done;
    Client.flush c;
    for _ = 1 to copies do
      let r = Client.recv c in
      let t1 = Stats.now_ns () in
      let at = Stats.s_between t_start t1 in
      Stats.record update_lat ~at (Stats.us_between t0 t1);
      let n = List.length call.reqs in
      (match ok_fields r with
      | Some f when List.assoc_opt "applied" f = Some (Dynfo_server.Json.Int n) ->
          applied := !applied + n;
          Stats.record applied_reqs ~at (float n);
          accepted := true :: !accepted
      | _ ->
          Atomic.incr errors;
          accepted := r.r_ok :: !accepted);
      Atomic.incr done_count
    done
  in
  let query_calls = Atomic.make 0 in
  let query_on conn series ~sched ~lo =
    Atomic.incr query_calls;
    ignore (Client.send conn (Wire.Query { session; name = None; args = [] }));
    Client.flush conn;
    let r = Client.recv conn in
    let t1 = Stats.now_ns () in
    let hi = Atomic.get sent_count in
    match Option.bind (ok_fields r) bool_result with
    | Some answer ->
        add_query { Check.lo; hi; answer } series ~at:(Stats.s_between t_start t1)
          (Stats.us_between sched t1)
    | None -> Atomic.incr errors
  in
  let finished = ref t_start in
  let loop_a () =
    let i = ref 0 in
    (try
       while Int64.compare (Stats.now_ns ()) deadline < 0 do
         update_call (Gen.nth_call w !i);
         incr i;
         for _ = 1 to Gen.queries_after w !i do
           query_on c query_lat ~sched:(Stats.now_ns ()) ~lo:(Atomic.get sent_count)
         done
       done
     with Failure _ | Sys_error _ | Unix.Unix_error _ -> Atomic.incr refused);
    finished := Stats.now_ns ()
  in
  let loop_b () =
    let conn = Daemon.connect s.daemon in
    let period = 1e9 /. w.query_rate in
    let rec go k =
      let sched = Int64.add t_start (Int64.of_float (float k *. period)) in
      if Int64.compare sched deadline < 0 then begin
        let now = Stats.now_ns () in
        if Int64.compare now sched < 0 then
          Unix.sleepf (Stats.s_between now sched);
        Mutex.protect qlock (fun () ->
            Stats.push late (Stats.us_between sched (Stats.now_ns ())));
        query_on conn open_lat ~sched ~lo:(Atomic.get done_count);
        go (k + 1)
      end
    in
    (try go 0 with Failure _ | Sys_error _ | Unix.Unix_error _ -> Atomic.incr refused);
    Client.close conn
  in
  let b = if w.query_rate > 0. then Some (Thread.create loop_b ()) else None in
  loop_a ();
  Option.iter Thread.join b;
  let stats = Client.stats c ~session in
  let rss_mb = Daemon.peak_rss_mb s.daemon in
  {
    update_lat;
    applied_reqs;
    query_lat;
    open_lat;
    late;
    sent = Array.of_list (List.rev !sent);
    accepted = Array.of_list (List.rev !accepted);
    queries = !queries;
    query_calls = Atomic.get query_calls;
    applied = !applied;
    wall_s = Stats.s_between t_start !finished;
    errors = Atomic.get errors;
    refused = Atomic.get refused;
    stats;
    rss_mb;
  }

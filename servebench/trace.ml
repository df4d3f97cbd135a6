(* The traced run: the same generated inputs replayed in process, with a
   span around every call into a layer's public functions, plus count
   deltas from the layers' public counters.

   Spans (name, start, end, parent, request id) are kept in memory and
   written out when the benchmark ends. The replays walk a fixed prefix
   of the workload, so the deterministic counts (work, groups, delta
   counters, analysis work) repeat exactly at one seed; session
   counts that depend on thread timing are taken over several replays
   and reported with their spread. *)

open Dynfo
module Delta_eval = Dynfo_logic.Delta_eval
module Eval = Dynfo_logic.Eval
module Session = Dynfo_server.Session
module Wire = Dynfo_server.Wire
module Json = Dynfo_server.Json

type span = {
  id : int;
  name : string;
  t0 : int64;
  t1 : int64;
  parent : int;  (** -1 for a root span *)
  req : int;  (** the call the span belongs to *)
}

let lock = Mutex.create ()
let spans = ref []
let next_id = Atomic.make 0
let durations : (string, Stats.buf) Hashtbl.t = Hashtbl.create 16

(* [span_us ~parent ~req name f] times [f id], where [id] is this span's
   id for children to name as parent; it returns the result and the
   duration in µs. *)
let span_us ?(parent = -1) ~req name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let t0 = Stats.now_ns () in
  let r = f id in
  let t1 = Stats.now_ns () in
  let us = Stats.us_between t0 t1 in
  Mutex.protect lock (fun () ->
      spans := { id; name; t0; t1; parent; req } :: !spans;
      let b =
        match Hashtbl.find_opt durations name with
        | Some b -> b
        | None ->
            let b = Stats.buf () in
            Hashtbl.replace durations name b;
            b
      in
      Stats.push b us);
  (r, us)

let span ?parent ~req name f = fst (span_us ?parent ~req name f)

let median_us name =
  match Hashtbl.find_opt durations name with
  | Some b -> Stats.percentile (Stats.sorted b) 50.
  | None -> nan

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"req\":%d}\n"
        s.id s.name s.t0 s.t1 s.parent s.req)
    (List.sort (fun a b -> compare a.id b.id) !spans);
  close_out oc

(* --- analysis: cold, in the daemon's order ------------------------------ *)

type analysis = { advisor_ms : float; commute_ms : float; defchange_ms : float; work : int }

(* Must run before anything else in the process touches the program:
   each analysis memoizes per program. *)
let analysis (p : Program.t) =
  let timed name f =
    span ~req:(-1) name (fun _ ->
        let t0 = Stats.now_ns () in
        let (), w = Eval.with_work (fun () -> ignore (f ())) in
        (Stats.us_between t0 (Stats.now_ns ()) /. 1e3, w))
  in
  let advisor_ms, w1 =
    timed "analysis.advisor" (fun () -> Dynfo_analysis.Advisor.choose p)
  in
  let commute_ms, w2 =
    timed "analysis.commute" (fun () -> Dynfo_analysis.Commute.matrix_of p)
  in
  let defchange_ms, w3 =
    timed "analysis.defchange" (fun () -> Dynfo_analysis.Defchange.matrix_of p)
  in
  { advisor_ms; commute_ms; defchange_ms; work = w1 + w2 + w3 }

(* --- runner, request and delta: one thread, deterministic --------------- *)

type counts = {
  work : int;
  groups : int;
  elided : int;
  absorbed : int;
  streamed : int;
  mask_builds : int;
  mask_reuse_hits : int;
  small_frontier_hits : int;
  memo_misses : int;
  words_cleared : int;
  tick_work : int array;  (** per call, for the wire replay's replies *)
  wall_ns : float;
}

let delta_counters () =
  Delta_eval.
    [|
      mask_builds ();
      mask_reuse_hits ();
      small_frontier_hits ();
      memo_misses ();
      words_cleared ();
    |]

(* Each call: expand its set requests, plan the tick, run it, ask the
   program query — the runner's public steps of one served update plus
   one read. Untraced, the same calls run without clocks or spans. *)
let runner_replay ~traced (w : Gen.t) (calls : Request.t list array) =
  let p = w.program in
  Delta_eval.invalidate ();
  let d0 = delta_counters () in
  let st = ref (Runner.init p ~size:w.size) in
  let work = ref 0 and groups = ref 0 and elided = ref 0 in
  let absorbed = ref 0 and streamed = ref 0 in
  let tick_work = Array.make (Array.length calls) 0 in
  let t0 = Stats.now_ns () in
  Array.iteri
    (fun k reqs ->
      let layer parent name f =
        if traced then span ~parent ~req:k name (fun _ -> f ()) else f ()
      in
      let body parent =
        let expanded =
          layer parent "request.expand" (fun () ->
              Request.expand_batch (Runner.structure !st) reqs)
        in
        ignore (layer parent "runner.plan" (fun () -> Runner.plan_groups p expanded));
        let s, wk, info =
          layer parent "runner.tick" (fun () ->
              Runner.step_batch_full ~backend:`Auto !st reqs)
        in
        st := s;
        tick_work.(k) <- wk;
        work := !work + wk;
        groups := !groups + info.Runner.bi_groups;
        elided := !elided + info.Runner.bi_elided;
        absorbed := !absorbed + info.Runner.bi_absorbed;
        streamed := !streamed + info.Runner.bi_streamed;
        ignore (layer parent "runner.query" (fun () -> Runner.query ~backend:`Auto s))
      in
      if traced then span ~req:k "call" body else body (-1))
    calls;
  let wall_ns = Int64.to_float (Int64.sub (Stats.now_ns ()) t0) in
  let d1 = delta_counters () in
  let d i = d1.(i) - d0.(i) in
  {
    work = !work;
    groups = !groups;
    elided = !elided;
    absorbed = !absorbed;
    streamed = !streamed;
    mask_builds = d 0;
    mask_reuse_hits = d 1;
    small_frontier_hits = d 2;
    memo_misses = d 3;
    words_cleared = d 4;
    tick_work;
    wall_ns;
  }

(* --- wire: both directions of each update call ---------------------------- *)

type wire = { encode_us : float; decode_us : float; bytes_per_call : float }

let wire_replay (calls : Request.t list array) (tick_work : int array) =
  let enc = Stats.buf () and dec = Stats.buf () in
  let bytes = ref 0 in
  Array.iteri
    (fun k reqs ->
      span ~req:k "wire.call" (fun id ->
          let leg name f = span_us ~parent:id ~req:k name (fun _ -> f ()) in
          let line, e1 =
            leg "wire.encode_cmd" (fun () ->
                Wire.cmd_line ~id:k (Wire.Update { session = "s2"; reqs }))
          in
          let _, d1 = leg "wire.decode_cmd" (fun () -> Wire.cmd_of_line line) in
          let reply =
            [ ("applied", Json.Int (List.length reqs)); ("work", Json.Int tick_work.(k)) ]
          in
          let rline, e2 =
            leg "wire.encode_reply" (fun () -> Wire.resp_line (Wire.ok ~id:k reply))
          in
          let _, d2 = leg "wire.decode_reply" (fun () -> Wire.resp_of_line rline) in
          Stats.push enc (e1 +. e2);
          Stats.push dec (d1 +. d2);
          bytes := !bytes + String.length line + String.length rline + 2))
    calls;
  {
    encode_us = Stats.percentile (Stats.sorted enc) 50.;
    decode_us = Stats.percentile (Stats.sorted dec) 50.;
    bytes_per_call = float !bytes /. float (Array.length calls);
  }

(* --- session: the same traffic shape, in process --------------------------- *)

type session_counts = { ticks : int; coalesced : int; deduped : int; hoisted : int }

(* One in-process session driven like the served one: thread A runs the
   prefix's update calls (a retried call twice) with the workload's
   inline queries, thread B the open-loop queries while A runs. The
   counts returned cover the replay only, not the warm-up calls. *)
let session_replay (w : Gen.t) ~rep =
  let s =
    Session.create ~id:(Printf.sprintf "trace%d" rep) ~name:w.program_name
      ~backend:`Auto w.program ~size:w.size
  in
  Array.iter (fun reqs -> ignore (Session.update s reqs)) w.warmup;
  let before : Session.stats = Session.stats s in
  let running = Atomic.make true in
  let loop_b () =
    let t0 = Stats.now_ns () in
    let k = ref 0 in
    while Atomic.get running do
      let due = float !k /. w.query_rate -. Stats.s_between t0 (Stats.now_ns ()) in
      if due > 0. then Unix.sleepf due;
      if Atomic.get running then
        ignore (span ~req:(-1) "session.query" (fun _ -> Session.query s []));
      incr k
    done
  in
  let b = if w.query_rate > 0. then Some (Thread.create loop_b ()) else None in
  for k = 0 to w.trace_calls - 1 do
    let call = Gen.nth_call w k in
    for _ = 1 to if call.retry then 2 else 1 do
      ignore (span ~req:k "session.update" (fun _ -> Session.update s call.reqs))
    done;
    for _ = 1 to Gen.queries_after w (k + 1) do
      ignore (span ~req:k "session.query" (fun _ -> Session.query s []))
    done
  done;
  Atomic.set running false;
  Option.iter Thread.join b;
  let after = Session.stats s in
  Session.close s;
  let d f = f after - f before in
  {
    ticks = d (fun s -> s.st_ticks);
    coalesced = d (fun s -> s.st_coalesced);
    deduped = d (fun s -> s.st_deduped);
    hoisted = d (fun s -> s.st_hoisted);
  }

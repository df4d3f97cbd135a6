(* Serving benchmark for the dynfo daemon.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--daemon PATH] [--out DIR]

   Untraced, it prints the end-to-end metrics of one workload: a fresh
   [dynfo_cli serve] process is set up several times (set-up time is the
   median), the last one serves a timed session for S seconds, and
   every served answer is checked against an offline replay. Median
   latencies, the update rate and the offline step time are taken over
   the quiet stretches of their phase (see [Stats.quiet]); tail
   latencies over the whole phase. Traced, it also replays the same
   inputs in process with spans around each layer's calls and prints
   the per-layer metrics instead. The last line of standard output is
   one JSON object; the exit code is 1 when any call failed or any
   answer disagreed. *)

open Servebench

let setups = 3

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let exe = ref "_build/default/bin/dynfo_cli.exe"
let out = ref "servebench/out"

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Gen.names);
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
    ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1 per-layer run");
    ("--daemon", Arg.Set_string exe, "PATH the dynfo_cli executable");
    ("--out", Arg.Set_string out, "DIR socket, daemon log and spans");
  ]

(* --- output ---------------------------------------------------------------- *)

let metrics = ref []

let metric name unit v =
  let v = if Float.is_finite v then v else 0. in
  metrics := (name, unit, v) :: !metrics

let json_line ~correct ~attempted ~failed =
  let m =
    List.rev_map
      (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      !metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let show name unit v note = Printf.printf "  %-28s %14.3f %-6s %s\n" name v unit note

(* The median of the samples of [s] completed in the quiet windows [q],
   and the highest percentile with enough samples beyond it over the
   whole phase: the host's interference is what makes a tail, so the
   tail keeps it. *)
let percentiles q (s : Stats.series) =
  let quiet = Stats.quiet_sorted q s and all = Stats.sorted s.x in
  let n = Array.length all in
  let note = Printf.sprintf "(n=%d of %d, in quiet windows)" (Array.length quiet) n in
  let note99 =
    if Stats.tail_ok ~count:n 99. then Printf.sprintf "(n=%d, whole phase)" n
    else Printf.sprintf "(n=%d: fewer than %d beyond p99)" n Stats.min_beyond
  in
  (Stats.percentile quiet 50., Stats.percentile all 99., note, note99)

(* --- offline phase --------------------------------------------------------- *)

(* [Runner.step_batch] on the workload's own update calls with no
   daemon, timed call by call: the warm-up calls run first on a separate
   state, as the daemon's first session does, then [run s] steps on
   through the pool, wrapping around, for [s] more seconds. The run's
   [offline_s] are spent in pieces spread over the whole run, one before
   each set-up and one after the timed session (see [served]), so that a
   stretch of host interference longer than a piece cannot take all of
   them. [result ()] gives µs per request over the quiet windows of the
   step time, the calls in them, and the calls timed. *)
let offline_s = 5.

let offline (w : Gen.t) =
  let step st reqs = Dynfo.Runner.step_batch ~backend:`Auto st reqs in
  let init () = Dynfo.Runner.init w.program ~size:w.size in
  ignore (Array.fold_left step (init ()) w.warmup);
  let per_req = Stats.series () in
  let step_ns = Stats.buf () and step_reqs = Stats.buf () in
  let busy = ref 0. and st = ref (init ()) and k = ref 0 in
  let run seconds =
    let until = !busy +. seconds in
    while !busy < until do
      let c = Gen.nth_call w !k in
      incr k;
      let t0 = Stats.now_ns () in
      st := step !st c.reqs;
      let ns = Int64.to_float (Int64.sub (Stats.now_ns ()) t0) in
      let n = float (List.length c.reqs) in
      busy := !busy +. (ns /. 1e9);
      Stats.record per_req ~at:!busy (ns /. 1e3 /. Float.max 1. n);
      Stats.push step_ns ns;
      Stats.push step_reqs n
    done
  in
  let result () =
    let q = Stats.quiet ~total_s:!busy per_req in
    let sum b = Stats.quiet_sum q ~at:per_req.at b in
    ( sum step_ns /. 1e3 /. Float.max 1. (sum step_reqs),
      Array.length (Stats.quiet_sorted q per_req),
      Stats.count step_ns )
  in
  (run, result)

(* --- served phase ---------------------------------------------------------- *)

(* [between ()] runs before each set-up and after the timed session,
   with no daemon alive. *)
let served ~between (w : Gen.t) =
  let first_ups = ref [] in
  let setup_s = ref [] in
  let rec go i =
    between ();
    let s = Served.setup ~exe:!exe ~dir:!out w in
    setup_s := s.setup_s :: !setup_s;
    first_ups := s.first_ups :: !first_ups;
    if i < setups then begin
      Daemon.shutdown s.daemon s.client;
      go (i + 1)
    end
    else begin
      Gc.compact ();
      let r = Served.timed ~seconds:!seconds w s in
      Daemon.shutdown s.daemon s.client;
      between ();
      r
    end
  in
  let r = go 1 in
  (r, Stats.median_of !setup_s, !setup_s, Stats.median_of !first_ups)

(* --- traced phase ---------------------------------------------------------- *)

let traced_run (w : Gen.t) =
  let a = Trace.analysis w.program in
  let calls = Array.init w.trace_calls (fun k -> (Gen.nth_call w k).reqs) in
  (* untraced first, then traced; both from a cold frontier cache *)
  let plain = Trace.runner_replay ~traced:false w calls in
  let c = Trace.runner_replay ~traced:true w calls in
  let wire = Trace.wire_replay calls c.tick_work in
  let sessions = List.init 3 (fun rep -> Trace.session_replay w ~rep) in
  (a, plain, c, wire, sessions)

(* --- main ------------------------------------------------------------------ *)

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "servebench";
  if not (List.mem !workload Gen.names) then begin
    prerr_endline ("servebench: unknown workload " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists !exe) then begin
    prerr_endline ("servebench: no daemon executable at " ^ !exe);
    exit 2
  end;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  Check.install ();
  let w = Gen.make ~name:!workload ~seed:!seed in
  let tr = if !traced then Some (traced_run w) else None in
  let offline_run, offline_result = offline w in
  let between () = offline_run (offline_s /. float (setups + 1)) in
  let r, setup_s, setup_all, first_ups = served ~between w in
  let step_us, step_quiet, step_calls = offline_result () in
  (* offline replay of exactly the calls sent, and the answer check *)
  let n = Array.length r.sent in
  let calls =
    Array.mapi
      (fun k (c : Gen.call) ->
        if k < Array.length r.accepted && r.accepted.(k) then Some c.reqs else None)
      r.sent
  in
  let need = Check.needed ~calls:n r.queries in
  let expected = Check.replay w.program ~size:w.size ~calls ~need in
  let mismatches = Check.mismatches expected r.queries in
  let attempted = n + r.query_calls + r.refused in
  let failed = r.errors + r.refused + mismatches in
  let fail_ratio = float failed /. float (max 1 attempted) in
  (* the quiet stretches of the served phase, by update-call latency *)
  let quiet = Stats.quiet ~total_s:r.wall_s r.update_lat in
  let u50, u99, un, u99note = percentiles quiet r.update_lat in
  let q50, q99, qn, q99note = percentiles quiet r.query_lat in
  let ups =
    Stats.quiet_sum quiet ~at:r.applied_reqs.at r.applied_reqs.x /. Stats.quiet_s quiet
  in
  Printf.printf "servebench %s seed %d: %.1f s timed, %d update calls, %d queries\n"
    w.name !seed r.wall_s n (List.length r.queries);
  show "updates_per_s" "1/s" ups
    (Printf.sprintf "(%d applied in %.2f s; quiet: %d of %d windows of %.3f s)"
       r.applied r.wall_s quiet.taken (Stats.windows quiet) quiet.w);
  show "update_p50_us" "us" u50 un;
  show "update_p99_us" "us" u99 u99note;
  show "query_p50_us" "us" q50 qn;
  show "query_p99_us" "us" q99 q99note;
  show "setup_s" "s" setup_s
    (Printf.sprintf "(median of %s)"
       (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") setup_all)));
  show "offline_step_us" "us" step_us
    (Printf.sprintf "(%d of %d calls, in quiet windows)" step_quiet step_calls);
  show "rss_mb" "MB" r.rss_mb "(daemon VmHWM)";
  show "fail_ratio" "ratio" fail_ratio
    (Printf.sprintf "(%d error replies, %d refused, %d mismatches of %d calls)"
       r.errors r.refused mismatches attempted);
  let st = r.stats in
  Printf.printf
    "  daemon session: %d ticks, %d coalesced, %d deduped, %d hoisted, %d groups, %d elided\n"
    st.ticks st.coalesced st.deduped st.hoisted st.groups st.elided;
  let o50, o99, on, o99note = percentiles quiet r.open_lat in
  let late99 = Stats.percentile (Stats.sorted r.late) 99. in
  if Stats.count r.open_lat.x > 0 then begin
    show "open_query_p50_us" "us" o50 on;
    show "open_query_p99_us" "us" o99 o99note;
    show "sender_late_p99_us" "us" late99
      (Printf.sprintf "(max %.1f us)" (Stats.percentile (Stats.sorted r.late) 100.))
  end;
  (match tr with
  | None ->
      metric "updates_per_s" "1/s" ups;
      metric "update_p50_us" "us" u50;
      metric "update_p99_us" "us" u99;
      metric "query_p50_us" "us" q50;
      metric "query_p99_us" "us" q99;
      metric "setup_s" "s" setup_s;
      metric "offline_step_us" "us" step_us;
      metric "rss_mb" "MB" r.rss_mb;
      metric "ok_ratio" "ratio" (1. -. fail_ratio)
  | Some (a, plain, c, wire, sessions) ->
      let k = float w.trace_calls in
      let med f = Stats.median_of (List.map (fun s -> float (f s)) sessions) in
      let spread f =
        let l = List.map f sessions in
        float (List.fold_left max min_int l - List.fold_left min max_int l)
      in
      let session_update_us = Trace.median_us "session.update" in
      let layer =
        [
          ("wire.decode_us", "us", wire.decode_us);
          ("wire.encode_us", "us", wire.encode_us);
          ("wire.bytes_per_call", "B", wire.bytes_per_call);
          ("server.overhead_us", "us", u50 -. session_update_us -. wire.encode_us -. wire.decode_us);
          ("session.update_us", "us", session_update_us);
          ("session.query_us", "us", Trace.median_us "session.query");
          ("session.first_updates_per_s", "1/s", first_ups);
          ("server.open_query_p50_us", "us", o50);
          ("server.open_query_p99_us", "us", o99);
          ("generator.late_p99_us", "us", late99);
          ("session.ticks", "count", med (fun s -> s.Trace.ticks));
          ("session.coalesced", "count", med (fun s -> s.Trace.coalesced));
          ("session.coalesced_spread", "count", spread (fun s -> s.Trace.coalesced));
          ("session.deduped", "count", med (fun s -> s.Trace.deduped));
          ("session.hoisted", "count", med (fun s -> s.Trace.hoisted));
          ("session.hoisted_spread", "count", spread (fun s -> s.Trace.hoisted));
          ("request.expand_us", "us", Trace.median_us "request.expand");
          ("runner.plan_us", "us", Trace.median_us "runner.plan");
          ("runner.tick_us", "us", Trace.median_us "runner.tick");
          ("runner.query_us", "us", Trace.median_us "runner.query");
          ("runner.work", "count", float c.work);
          ("runner.groups", "count", float c.groups);
          ("runner.elided", "count", float c.elided);
          ("runner.streamed", "count", float c.streamed);
          ("runner.absorbed", "count", float c.absorbed);
          ("delta.mask_builds", "count", float c.mask_builds);
          ("delta.mask_reuse_hits", "count", float c.mask_reuse_hits);
          ("delta.small_frontier_hits", "count", float c.small_frontier_hits);
          ( "delta.small_frontier_ratio", "ratio",
            float c.small_frontier_hits
            /. float (max 1 (c.small_frontier_hits + c.mask_builds)) );
          ("delta.memo_misses", "count", float c.memo_misses);
          ("delta.words_cleared", "count", float c.words_cleared);
          ("analysis.advisor_ms", "ms", a.advisor_ms);
          ("analysis.commute_ms", "ms", a.commute_ms);
          ("analysis.defchange_ms", "ms", a.defchange_ms);
          ("analysis.work", "count", float a.work);
          ("trace.overhead_us", "us", (c.wall_ns -. plain.wall_ns) /. 1e3 /. k);
        ]
      in
      Printf.printf "per layer (traced replay of the first %d calls):\n" w.trace_calls;
      List.iter
        (fun (n, u, v) ->
          show n u v "";
          metric n u v)
        layer;
      Trace.write
        (Filename.concat !out (Printf.sprintf "spans-%s-%d.jsonl" w.name !seed)));
  let correct = failed = 0 in
  print_endline (json_line ~correct ~attempted ~failed);
  exit (if correct then 0 else 1)

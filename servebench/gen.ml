(* The workloads and their inputs, made from the seed alone before
   anything is timed. The daemon receives exactly these requests.

   Every workload runs with the client defaults: backend [auto] (delta
   for both programs) and coalescing [commute]. Why each one was chosen,
   which layers it stresses and which it bypasses is recorded in
   BENCHMARK.json. Both keep a served call well under a millisecond, so
   that the quiet stretches [Stats.quiet] looks for hold whole calls. *)

open Dynfo
module Registry = Dynfo_programs.Registry

type call = {
  reqs : Request.t list;  (** one update command, one evaluation tick *)
  retry : bool;
      (** followed at once by a duplicate of itself, sent before the
          first reply is read (a client retry) *)
}

type t = {
  name : string;
  program_name : string;  (** registry name, as sent to the daemon *)
  program : Program.t;
  size : int;
  warmup : Request.t list array;
      (** the untimed first session's update calls *)
  pool : call array;
      (** the timed session's update calls; the closed loop takes them
          in order and wraps around if it runs out *)
  queries_per_call : float;
      (** program queries on the update connection per update call,
          sent after the calls that bring the running total up *)
  query_rate : float;
      (** open-loop program queries per second on a second connection;
          0 for none *)
  trace_calls : int;  (** pool prefix the traced replay walks *)
}

let names = [ "parity_singletons"; "matching_mixed" ]

let rec chunks k = function
  | [] -> []
  | l ->
      let rec take i acc = function
        | x :: rest when i < k -> take (i + 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take 0 [] l in
      c :: chunks k rest

let calls_of ?(retry = fun _ -> false) batches =
  Array.of_list (List.map (fun reqs -> { reqs; retry = retry () }) batches)

let registry_calls (e : Registry.entry) rng ~size ~batch ~calls =
  chunks batch (e.workload rng ~size ~length:(batch * calls))

(* Matching: every 8th call is replaced by one [ins*]/[del*] list of up
   to four edges, and a quarter of the calls are retried. A shadow edge
   set (unordered pairs) lets [del*] name edges that are present. *)
let matching_pool rng ~size ~calls =
  let e = Registry.find "matching" in
  let batches = registry_calls e rng ~size ~batch:16 ~calls in
  let live = Hashtbl.create 64 in
  let norm (t : Dynfo_logic.Tuple.t) = (min t.(0) t.(1), max t.(0) t.(1)) in
  let track = function
    | Request.Ins ("E", t) -> Hashtbl.replace live (norm t) ()
    | Request.Del ("E", t) -> Hashtbl.remove live (norm t)
    | Request.Ins_set ("E", ts) ->
        List.iter (fun t -> Hashtbl.replace live (norm t) ()) ts
    | Request.Del_set ("E", ts) ->
        List.iter (fun t -> Hashtbl.remove live (norm t)) ts
    | _ -> ()
  in
  let edge () =
    let a = Random.State.int rng size in
    let b = (a + 1 + Random.State.int rng (size - 1)) mod size in
    [| a; b |]
  in
  let list_call () =
    if Random.State.bool rng || Hashtbl.length live = 0 then
      [ Request.Ins_set ("E", List.init 4 (fun _ -> edge ())) ]
    else
      let present =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) live [])
      in
      let pick () =
        let a, b = List.nth present (Random.State.int rng (List.length present)) in
        [| a; b |]
      in
      [ Request.Del_set ("E", List.sort_uniq compare (List.init 4 (fun _ -> pick ()))) ]
  in
  let reqs =
    List.mapi
      (fun i b ->
        let c = if i mod 8 = 7 then list_call () else b in
        List.iter track c;
        c)
      batches
  in
  calls_of ~retry:(fun () -> Random.State.float rng 1. < 0.25) reqs

let make ~name ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let entry program_name = Registry.find program_name in
  let base program_name ~size =
    let e = entry program_name in
    (e, { name; program_name; program = e.program; size; warmup = [||];
          pool = [||]; queries_per_call = 0.; query_rate = 0.; trace_calls = 0 })
  in
  match name with
  | "parity_singletons" ->
      let e, w = base "parity" ~size:1024 in
      let warmup = registry_calls e rng ~size:1024 ~batch:1 ~calls:2000 in
      let pool = registry_calls e rng ~size:1024 ~batch:1 ~calls:100_000 in
      { w with warmup = Array.of_list warmup; pool = calls_of pool;
               queries_per_call = 0.125; trace_calls = 20_000 }
  | "matching_mixed" ->
      let _, w = base "matching" ~size:8 in
      let warmup = Array.map (fun c -> c.reqs) (matching_pool rng ~size:8 ~calls:200) in
      let pool = matching_pool rng ~size:8 ~calls:16_000 in
      { w with warmup; pool; queries_per_call = 1.; query_rate = 500.;
               trace_calls = 2000 }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* The [i]-th update call of a timed session (from 0). *)
let nth_call w i = w.pool.(i mod Array.length w.pool)

(* Inline program queries due after the [i]-th update call (from 1). *)
let queries_after w i =
  let upto i = int_of_float (float i *. w.queries_per_call) in
  upto i - upto (i - 1)

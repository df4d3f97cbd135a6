(* Correctness of served answers: every query answer is compared with an
   offline [Runner] replay of the update calls that preceded it.

   A query on the update connection follows a known number of update
   calls. A query on a second connection races the update stream: it
   was sent after [lo] update calls had been answered and answered
   before more than [hi] had been sent, so it must equal the offline
   answer after some prefix [k] with [lo <= k <= hi]. An update the
   daemon lets overtake a pending query is verified invisible to it,
   so the window stays exact. *)

open Dynfo

type query = { lo : int; hi : int; answer : bool }

(* The analyses and backend chooser the daemon installs at start-up. *)
let install () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  Dynfo_analysis.Defchange.install ()

let needed ~calls queries =
  let need = Array.make (calls + 1) false in
  List.iter
    (fun q ->
      for k = max 0 q.lo to min calls q.hi do
        need.(k) <- true
      done)
    queries;
  need

(* The offline answers: [calls.(k)] is the k-th update call as sent,
   [None] if the daemon rejected it (its state is then unchanged); the
   result holds the answer after k calls, where [need.(k)]. *)
let replay (p : Program.t) ~size ~(calls : Request.t list option array) ~need =
  let n = Array.length calls in
  let expected = Array.make (n + 1) false in
  let st = ref (Runner.init p ~size) in
  if need.(0) then expected.(0) <- Runner.query ~backend:`Auto !st;
  Array.iteri
    (fun k c ->
      Option.iter (fun reqs -> st := Runner.step_batch ~backend:`Auto !st reqs) c;
      if need.(k + 1) then expected.(k + 1) <- Runner.query ~backend:`Auto !st)
    calls;
  expected

let agrees expected q =
  let rec go k = k <= q.hi && (expected.(k) = q.answer || go (k + 1)) in
  go (max 0 q.lo)

let mismatches expected queries =
  List.fold_left
    (fun acc q -> if agrees expected q then acc else acc + 1)
    0 queries

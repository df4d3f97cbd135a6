(* The benchmark's answer check must fire when a served answer disagrees
   with the offline replay: replay a small parity session, accept the
   true answers, then corrupt one expected answer and see it counted. *)

open Servebench

let () =
  Check.install ();
  let e = Dynfo_programs.Registry.find "parity" in
  let size = 8 in
  let rng = Random.State.make [| 7 |] in
  let reqs = e.workload rng ~size ~length:24 in
  let calls = Array.of_list (List.map (fun r -> Some [ r ]) reqs) in
  let n = Array.length calls in
  (* one query per prefix on the update connection, one racing window *)
  let all = List.init (n + 1) (fun k -> { Check.lo = k; hi = k; answer = false }) in
  let need = Check.needed ~calls:n all in
  let expected = Check.replay e.program ~size ~calls ~need in
  let served =
    List.map (fun (q : Check.query) -> { q with answer = expected.(q.lo) }) all
    @ [ { Check.lo = 3; hi = 9; answer = expected.(5) } ]
  in
  assert (Check.mismatches expected served = 0);
  (* the served answers stay; one expected answer is deliberately wrong *)
  let wrong = Array.copy expected in
  wrong.(11) <- not wrong.(11);
  assert (Check.mismatches wrong served = 1);
  (* a racing answer no prefix in its window produced *)
  let window = { Check.lo = 2; hi = 2; answer = not expected.(2) } in
  assert (Check.mismatches expected [ window ] = 1);
  print_endline "servebench check: ok"

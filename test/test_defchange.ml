(* Tests for the definable-change analysis and the batch-absorption
   machinery it licenses. Three angles: the registry matrices must only
   claim what the model checker confirmed (known verdicts included);
   hand-mutated programs whose update blocks genuinely differ from
   default maintenance must never come out [Absorb] — and forcing the
   verdict anyway must be observably wrong, proving the analyzer's
   refusal matters; and the whole-batch law (certified batch tick ≡
   singleton-sequence fold of the pre-state expansion, answers and
   final relations both) is replayed as a qcheck property over the
   whole registry across all four backends and the parallel engine at
   1 and 4 lanes, with set and FO-defined requests mixed in. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
module D = Dynfo_analysis.Defchange
module Advisor = Dynfo_analysis.Advisor
module Commute = Dynfo_analysis.Commute
module Pool = Dynfo_engine.Pool
module Par_runner = Dynfo_engine.Par_runner
module Refmodel = Dynfo_analysis.Refmodel
module Session = Dynfo_server.Session

let () =
  Advisor.install ();
  Commute.install ();
  D.install ()

let check = Alcotest.check
let tb = Alcotest.bool
let find name = (Registry.find name).Registry.program
let backends = [ `Tuple; `Bulk; `Delta; `Auto ]

(* --- matrices claim only what was confirmed ------------------------------ *)

let test_matrix_confirmed () =
  List.iter
    (fun name ->
      let m = D.matrix_of (find name) in
      List.iter
        (fun (c : D.cell) ->
          match c.D.d_verdict with
          | D.Absorb | D.Stream ->
              check tb
                (Printf.sprintf "%s: %s verdict confirmed" name
                   (D.op_name c.D.d_op))
                true
                (c.D.d_checks > 0 && c.D.d_domain <> None)
          | D.Fold ->
              check tb
                (Printf.sprintf "%s: %s fold carries a refutation" name
                   (D.op_name c.D.d_op))
                true (c.D.d_checks > 0)
          | D.Unknown -> ())
        m.D.m_cells)
    [ "parity"; "reach_u"; "matching" ]

let test_known_verdicts () =
  let m = D.matrix_of (find "parity") in
  (* the b-rule reads M(a): members observe each other, absorb is
     refuted — but the group still streams under one delta scope *)
  check tb "parity ins M streams" true (D.verdict m `Ins "M" = D.Stream);
  check tb "parity del M streams" true (D.verdict m `Del "M" = D.Stream);
  (match D.find_cell m `Ins "M" with
  | Some c ->
      check tb "parity ins M absorb law refuted" true
        (not c.D.d_absorb.D.law_holds);
      check tb "parity ins M definable law confirmed" true
        (c.D.d_definable.D.law_holds && c.D.d_definable.D.law_checks > 0)
  | None -> Alcotest.fail "parity ins M cell missing");
  let mr = D.matrix_of (find "reach_u") in
  check tb "reach_u ins E streams" true (D.verdict mr `Ins "E" = D.Stream);
  (* no on_set block: whole set-groups absorb as default maintenance *)
  check tb "reach_u set s absorbs" true (D.verdict mr `Set "s" = D.Absorb);
  check tb "reach_u set t absorbs" true (D.verdict mr `Set "t" = D.Absorb);
  (* the installed oracle answers what the matrix verified *)
  check tb "oracle: reach_u set s -> `Absorb" true
    (D.oracle_of (find "reach_u") `Set "s" = `Absorb);
  check tb "oracle: parity ins M -> `Stream" true
    (D.oracle_of (find "parity") `Ins "M" = `Stream)

let test_mc_size_zero_is_unknown () =
  let m = D.analyze ~max_size:0 (find "parity") in
  List.iter
    (fun (c : D.cell) ->
      check tb
        (Printf.sprintf "mc-size 0: %s is Unknown" (D.op_name c.D.d_op))
        true
        (c.D.d_verdict = D.Unknown);
      check tb "Unknown maps to the safe `Fold" true
        (match D.verdict m c.D.d_op.Commute.op_kind c.D.d_op.Commute.op_rel with
        | D.Unknown -> true
        | _ -> false))
    m.D.m_cells

(* --- mutation: a batch-sensitive block is never granted Absorb ----------- *)

let m_vocab = Vocab.make ~rels:[ ("M", 1) ] ~consts:[]
let a_vocab = Vocab.make ~rels:[ ("A", 1) ] ~consts:[]

(* first-insert latch: [A] records elements whose insertion was the
   first (M(a) false in the pre-state). The M-rule is exactly default
   maintenance, so an absorbing batch would keep M right but drop every
   A record — [ins 0] on an empty state differs observably. *)
let first_insert =
  Program.make ~name:"first-insert" ~input_vocab:m_vocab ~aux_vocab:a_vocab
    ~init:(fun n -> Structure.create ~size:n (Vocab.union m_vocab a_vocab))
    ~on_ins:
      [
        ( "M",
          Program.update ~params:[ "a" ]
            [
              Program.rule_s "M" [ "x" ] "M(x) | x = a";
              Program.rule_s "A" [ "x" ] "A(x) | (x = a & ~M(a))";
            ] );
      ]
    ~query:(Parser.parse "ex x (A(x))") ()

let test_mutation_rejects_absorb () =
  let m = D.analyze first_insert in
  check tb "first-insert ins M is not Absorb" true
    (D.verdict m `Ins "M" <> D.Absorb);
  (match D.find_cell m `Ins "M" with
  | Some c ->
      check tb "absorb law refuted with a counterexample" true
        (not c.D.d_absorb.D.law_holds)
  | None -> Alcotest.fail "first-insert ins M cell missing");
  check tb "oracle never answers `Absorb for it" true
    (D.oracle_of first_insert `Ins "M" <> `Absorb);
  (* the refusal matters: forcing `Absorb anyway is observably wrong *)
  let s0 = Runner.init first_insert ~size:4 in
  let batch = [ Request.ins "M" [ 0 ]; Request.ins "M" [ 1 ] ] in
  let fold_s = Runner.run s0 batch in
  let forced =
    Runner.step_batch ~oracle:Runner.null_oracle
      ~defchange:(fun _ _ -> `Absorb)
      s0 batch
  in
  check tb "forced absorption diverges from the fold" false
    (Structure.equal (Runner.structure fold_s) (Runner.structure forced));
  (* ... and the honest batch path (installed oracle) agrees with it *)
  let honest = Runner.step_batch s0 batch in
  check tb "oracle-driven batch matches the fold" true
    (Structure.equal (Runner.structure fold_s) (Runner.structure honest))

(* --- qcheck: certified batches == singleton fold, whole registry --------- *)

let qprogs = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all

(* Lift a singleton workload into batch request forms: contiguous runs
   of the same (kind, relation) collapse into ins*/del* tuple lists,
   and on a cadence an FO-defined range change rides along. The
   reference semantics is the pre-state expansion's fold, so arbitrary
   mixes stay comparable. *)
let lift_batch rng (p : Program.t) ~size reqs =
  let tup = function
    | Request.Ins (_, t) | Request.Del (_, t) -> Array.to_list t
    | _ -> assert false
  in
  let rec runs acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | r :: rest -> (
        match (r, cur) with
        | (Request.Ins (n, _) | Request.Del (n, _)), prev :: _
          when Runner.op_key r = Runner.op_key prev
               && Random.State.bool rng ->
            ignore n;
            runs acc (r :: cur) rest
        | _ -> runs (if cur = [] then acc else List.rev cur :: acc) [ r ] rest)
  in
  let collapse group =
    match group with
    | (Request.Ins (n, _) :: _ | Request.Del (n, _) :: _)
      when List.length group > 1 -> (
        match List.hd group with
        | Request.Ins _ -> [ Request.ins_set n (List.map tup group) ]
        | _ -> [ Request.del_set n (List.map tup group) ])
    | g -> g
  in
  let base = List.concat_map collapse (runs [] [] reqs) in
  match Vocab.relations p.input_vocab with
  | (s : Vocab.sym) :: _ when s.arity >= 1 && Random.State.int rng 3 = 0 ->
      let vars = List.init s.arity (fun i -> Printf.sprintf "qv%d" i) in
      let lim = 1 + Random.State.int rng size in
      let phi =
        Formula.conj
          (List.map
             (fun x -> Formula.Lt (Formula.Var x, Formula.Num lim))
             vars)
      in
      let def =
        if Random.State.bool rng then Request.Ins_def (s.name, vars, phi)
        else Request.Del_def (s.name, vars, phi)
      in
      base @ [ def ]
  | _ -> base

let batch_law (seed, length, name) =
  let e = Registry.find name in
  let size = 6 in
  let rng = Random.State.make [| 0xDC; seed |] in
  let reqs = e.Registry.workload rng ~size ~length in
  let batch = lift_batch rng e.Registry.program ~size reqs in
  let s0 = Runner.init e.Registry.program ~size in
  let expanded = Request.expand_batch (Runner.structure s0) batch in
  List.for_all
    (fun backend ->
      let a = Runner.run ~backend s0 expanded in
      let b = Runner.step_batch ~backend s0 batch in
      Structure.equal (Runner.structure a) (Runner.structure b)
      && Runner.query ~backend a = Runner.query ~backend b)
    backends

let batch_qcheck =
  QCheck.Test.make
    ~name:
      "certified batch tick == singleton fold (answers and relations), \
       every backend, whole registry"
    ~count:60
    QCheck.(
      make
        ~print:(fun (seed, length, name) ->
          Printf.sprintf "seed %d, length %d, %s" seed length name)
        Gen.(triple (int_range 1 100_000) (int_range 1 30) (oneofl qprogs)))
    batch_law

(* A pad_reach_a batch whose Up sweeps were once absorbed on a verdict
   the sampled reachable domain could not refute: skipping the update
   block leaves the A iterate stale. *)
let test_pad_reach_a_regression () =
  check tb "pad_reach_a batch tick == singleton fold" true
    (batch_law (35282, 28, "pad_reach_a"));
  let m = D.matrix_of (find "pad_reach_a") in
  List.iter
    (fun kind ->
      check tb "pad_reach_a Up never absorbs" true
        (D.verdict m kind "Up" <> D.Absorb))
    [ `Ins; `Del ]

let par_batch_qcheck =
  QCheck.Test.make
    ~name:"parallel step_batch honors the same verdicts (1 and 4 lanes)"
    ~count:20
    QCheck.(triple (int_range 1 100_000) (int_range 1 20) (oneofl qprogs))
    (fun (seed, length, name) ->
      let e = Registry.find name in
      let size = 6 in
      let rng = Random.State.make [| 0xDC; seed |] in
      let reqs = e.Registry.workload rng ~size ~length in
      let batch = lift_batch rng e.Registry.program ~size reqs in
      let s0 = Runner.init e.Registry.program ~size in
      let expanded = Request.expand_batch (Runner.structure s0) batch in
      let want = Runner.run ~backend:`Delta s0 expanded in
      List.for_all
        (fun lanes ->
          Pool.with_pool ~lanes (fun pool ->
              let ps = Par_runner.wrap pool ~backend:`Delta s0 in
              let got = Par_runner.step_batch ps batch in
              Structure.equal (Runner.structure want)
                (Par_runner.structure got)
              && Runner.query ~backend:`Delta want = Par_runner.query got))
        [ 1; 4 ])

(* --- the memoized reference model ---------------------------------------- *)

let pow b e = List.fold_left (fun acc _ -> acc * b) 1 (List.init e Fun.id)
let tuple_of ~size ~arity i = Array.init arity (fun j -> i / pow size j mod size)
let sizes = [ 1; 2; 3; 4 ]

(* An arbitrary structure over the program's combined vocabulary — the
   model checkers' synthetic domain, arity-0 relations included. *)
let random_structure rng (p : Program.t) ~size =
  let vocab = Program.vocab p in
  let fill st (s : Vocab.sym) =
    let density = [| 0.15; 0.5; 0.85 |].(Random.State.int rng 3) in
    List.fold_left
      (fun st i ->
        if Random.State.float rng 1.0 < density then
          Structure.add_tuple st s.name (tuple_of ~size ~arity:s.arity i)
        else st)
      st
      (List.init (pow size s.arity) Fun.id)
  in
  List.fold_left
    (fun st c -> Structure.with_const st c (Random.State.int rng size))
    (List.fold_left fill (Structure.create ~size vocab) (Vocab.relations vocab))
    (Vocab.constants vocab)

(* Singleton requests drawn from a pool of three, so a sequence
   revisits states (ins a; del a; ins a ...) and the table hits. *)
let random_requests rng (p : Program.t) ~size ~length =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let args arity =
    Array.to_list
      (tuple_of ~size ~arity (Random.State.int rng (pow size arity)))
  in
  let ops =
    List.concat_map
      (fun (s : Vocab.sym) ->
        [
          (fun () -> Request.ins s.name (args s.arity));
          (fun () -> Request.del s.name (args s.arity));
        ])
      (Vocab.relations p.input_vocab)
    @ List.map
        (fun c () -> Request.set c (Random.State.int rng size))
        (Vocab.constants p.input_vocab)
  in
  let pool = List.init 3 (fun _ -> (pick ops) ()) in
  List.init length (fun _ -> pick pool)

let refmodel_roundtrip =
  QCheck.Test.make
    ~name:"reference model: decode (encode st) = st, whole registry, n=1..4"
    ~count:20 (QCheck.int_range 1 100_000) (fun seed ->
      let rng = Random.State.make [| 0x7AB; seed |] in
      List.for_all
        (fun name ->
          let p = find name in
          let rm = Refmodel.create ~max_size:4 p in
          List.for_all
            (fun size ->
              let st = random_structure rng p ~size in
              let s = Refmodel.start rm st in
              (not (Refmodel.coded s))
              || Structure.equal (Refmodel.structure s) st
                 && Refmodel.matches s st)
            sizes)
        qprogs)

(* The memoized fold agrees with [Runner.step ~backend:`Tuple] after
   every request — twice over the same table, so the second pass is
   served from hits — at every size through one table, as an analysis
   run uses it. With [slots] tiny every store overwrites and keys
   collide constantly. *)
let refmodel_fold ?slots label =
  QCheck.Test.make
    ~name:("reference model: memoized fold == tuple run, " ^ label)
    ~count:100
    QCheck.(pair (int_range 1 100_000) (oneofl qprogs))
    (fun (seed, name) ->
      let p = find name in
      let rng = Random.State.make [| 0xF01D; seed |] in
      let rm = Refmodel.create ?slots ~max_size:4 p in
      let agrees size =
        let st = random_structure rng p ~size in
        let reqs = random_requests rng p ~size ~length:12 in
        let pass () =
          let _, _, ok =
            List.fold_left
              (fun (want, got, ok) r ->
                let want = Runner.step ~backend:`Tuple want r in
                let got = Refmodel.step rm got r in
                let w = Runner.structure want in
                ( want,
                  got,
                  ok
                  && Structure.equal (Refmodel.structure got) w
                  && Refmodel.matches got w ))
              (Runner.restore p st, Refmodel.start rm st, true)
              reqs
          in
          ok
        in
        let want = Runner.run ~backend:`Tuple (Runner.restore p st) reqs in
        pass () && pass ()
        && Refmodel.equal
             (Refmodel.fold rm (Refmodel.start rm st) reqs)
             (Refmodel.start rm (Runner.structure want))
      in
      List.for_all agrees (sizes @ sizes))

let test_refmodel_coding () =
  let parity = find "parity" in
  let rm = Refmodel.create ~max_size:4 parity in
  List.iter
    (fun size ->
      let st = Runner.structure (Runner.init parity ~size) in
      let flipped =
        if Structure.mem st "b" [||] then Structure.del_tuple st "b" [||]
        else Structure.add_tuple st "b" [||]
      in
      let a = Refmodel.start rm st and b = Refmodel.start rm flipped in
      let at what = Printf.sprintf "parity n=%d: %s" size what in
      check tb (at "coded") true (Refmodel.coded a && Refmodel.coded b);
      (* the arity-0 relation owns a bit of its own *)
      check tb (at "b() distinguishes codes") false (Refmodel.equal a b);
      check tb (at "matches sees the flip") false (Refmodel.matches a flipped);
      (* a structure without the exact vocabulary stays plain, and is
         still compared by Structure.equal *)
      let input = Structure.restrict st parity.Program.input_vocab in
      check tb (at "partial vocabulary is not coded") false
        (Refmodel.coded (Refmodel.start rm input));
      check tb (at "partial vocabulary never matches") false
        (Refmodel.matches a input))
    sizes;
  let matching = find "matching" in
  let rm = Refmodel.create ~max_size:4 matching in
  List.iter
    (fun size ->
      let st = Runner.structure (Runner.init matching ~size) in
      check tb
        (Printf.sprintf "matching n=%d is coded" size)
        true
        (Refmodel.coded (Refmodel.start rm st)))
    sizes;
  (* beyond the table's sizes: plain structures, direct steps *)
  let big = Runner.structure (Runner.init parity ~size:5) in
  check tb "sizes past max_size are not coded" false
    (Refmodel.coded (Refmodel.start (Refmodel.create ~max_size:4 parity) big))

(* --- analysis next to live sessions ------------------------------------- *)

(* A cold analysis restores ~10^5 synthetic states; none of that may
   flush a live delta runner's warm frontier state. *)
let test_analysis_keeps_live_caches () =
  (* start from an empty cache so the state-count limit cannot fire *)
  Delta_eval.invalidate ();
  let e = Registry.find "reach_u" in
  let size = 6 in
  let rng = Random.State.make [| 17 |] in
  let reqs = e.Registry.workload rng ~size ~length:24 in
  let live =
    Runner.run ~backend:`Delta (Runner.init e.Registry.program ~size) reqs
  in
  let replay () =
    let m0 = Delta_eval.memo_misses () in
    ignore (Runner.run ~backend:`Delta live reqs);
    Delta_eval.memo_misses () - m0
  in
  check Alcotest.int "warm replay compiles nothing" 0 (replay ());
  ignore (D.analyze (find "parity"));
  check Alcotest.int "still warm after another program's analysis" 0
    (replay ())

(* A FIFO session on a program nobody analyzed yet: its ticks consult
   the installed Defchange oracle, so [create] must warm it — the first
   tick then meters exactly what a later session's first tick does. *)
let test_fifo_first_tick_warm () =
  let p = find "parity" in
  (* a fresh program value: no cached matrix *)
  let cold = { p with Program.name = p.Program.name } in
  let size = 8 in
  let reqs =
    Request.
      [ ins "M" [ 0 ]; ins "M" [ 3 ]; del "M" [ 0 ]; ins "M" [ 5 ] ]
  in
  let first_tick id =
    let s =
      Session.create ~id ~name:"parity" ~backend:`Tuple ~coalesce:`Fifo cold
        ~size
    in
    let _, w = Session.update s reqs in
    Session.close s;
    w
  in
  let w1 = first_tick "cold" in
  let w2 = first_tick "warm" in
  check Alcotest.int "cold first tick == warm first tick" w2 w1;
  let _, offline, _ =
    Runner.step_batch_full ~backend:`Tuple ~oracle:Runner.null_oracle
      (Runner.init cold ~size) reqs
  in
  check Alcotest.int "== the offline tick" offline w1

let () =
  Alcotest.run "defchange"
    [
      ( "matrix",
        [
          Alcotest.test_case "verdicts are confirmed" `Quick
            test_matrix_confirmed;
          Alcotest.test_case "known verdicts" `Quick test_known_verdicts;
          Alcotest.test_case "mc-size 0 degrades to Unknown" `Quick
            test_mc_size_zero_is_unknown;
          Alcotest.test_case "mutation never absorbs" `Quick
            test_mutation_rejects_absorb;
        ] );
      ( "laws",
        [
          QCheck_alcotest.to_alcotest batch_qcheck;
          Alcotest.test_case "pad_reach_a Up regression batch" `Quick
            test_pad_reach_a_regression;
          QCheck_alcotest.to_alcotest par_batch_qcheck;
        ] );
      ( "model",
        [
          Alcotest.test_case "coding" `Quick test_refmodel_coding;
          QCheck_alcotest.to_alcotest refmodel_roundtrip;
          QCheck_alcotest.to_alcotest (refmodel_fold "4096 slots");
          QCheck_alcotest.to_alcotest
            (refmodel_fold ~slots:2 "2 slots, colliding");
        ] );
      ( "serve",
        [
          Alcotest.test_case "analysis keeps live delta caches" `Quick
            test_analysis_keeps_live_caches;
          Alcotest.test_case "fifo first tick is warm" `Quick
            test_fifo_first_tick_warm;
        ] );
    ]

(* Tests for the Dyn-FO framework: requests, programs, the runner's
   synchronous update semantics, workloads and the harness. *)

open Dynfo_logic
open Dynfo

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* --- Request ----------------------------------------------------------- *)

let test_request_parse () =
  check tb "ins" true
    (Request.parse "ins E (1,2)" = Request.ins "E" [ 1; 2 ]);
  check tb "spaces" true
    (Request.parse "  del E (0, 3) " = Request.del "E" [ 0; 3 ]);
  check tb "set" true (Request.parse "set s 4" = Request.set "s" 4);
  check tb "nullary" true (Request.parse "ins b ()" = Request.ins "b" []);
  List.iter
    (fun s ->
      match Request.parse s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "%S should not parse" s)
    [ "frob E (1)"; "ins E 1,2"; "set s x"; "ins E (a)" ]

let test_request_roundtrip () =
  List.iter
    (fun r -> check tb (Request.to_string r) true (Request.parse (Request.to_string r) = r))
    [ Request.ins "E" [ 1; 2 ]; Request.del "M" [ 0 ]; Request.set "s" 3 ]

(* The token-splitting request reader that [Request.parse]'s single-pass
   scanner replaced, kept verbatim as the scanner's oracle: the scanner
   must accept and reject exactly the same strings, with the same values
   and the same error messages. *)
module Oracle = struct
  open Request

  let malformed line =
    failwith (Printf.sprintf "Request.parse: malformed %S" line)

  let parse_tuple_list line s =
    let s = String.trim s in
    let n = String.length s in
    let out = ref [] in
    let i = ref 0 in
    while !i < n do
      while !i < n && s.[!i] = ' ' do incr i done;
      if !i < n then begin
        if s.[!i] <> '(' then malformed line;
        let j =
          try String.index_from s !i ')' with Not_found -> malformed line
        in
        let inner = String.sub s (!i + 1) (j - !i - 1) in
        let comps =
          if String.trim inner = "" then []
          else
            List.map
              (fun c ->
                match int_of_string_opt (String.trim c) with
                | Some v -> v
                | None -> malformed line)
              (String.split_on_char ',' inner)
        in
        out := Array.of_list comps :: !out;
        i := j + 1
      end
    done;
    List.rev !out

  let parse_def line kind rest =
    match String.index_opt rest ':' with
    | None -> malformed line
    | Some c ->
        let head = String.trim (String.sub rest 0 c) in
        let body =
          String.trim (String.sub rest (c + 1) (String.length rest - c - 1))
        in
        let name, vars_s =
          match String.index_opt head '(' with
          | None -> malformed line
          | Some p ->
              ( String.trim (String.sub head 0 p),
                String.sub head p (String.length head - p) )
        in
        let vs = String.trim vars_s in
        let len = String.length vs in
        if name = "" || len < 2 || vs.[0] <> '(' || vs.[len - 1] <> ')' then
          malformed line;
        let inner = String.trim (String.sub vs 1 (len - 2)) in
        let vars =
          if inner = "" then []
          else List.map String.trim (String.split_on_char ',' inner)
        in
        let f =
          try Parser.parse body with Parser.Parse_error _ -> malformed line
        in
        if kind = "insdef" then Ins_def (name, vars, f)
        else Del_def (name, vars, f)

  let parse line =
    let fail () = malformed line in
    let line = String.trim line in
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ "set"; name; a ] -> (
        match int_of_string_opt a with Some a -> Set (name, a) | None -> fail ())
    | kind :: name :: rest
      when (kind = "insdef" || kind = "deldef") && rest <> [] ->
        parse_def line kind (name ^ " " ^ String.concat " " rest)
    | kind :: name :: rest when kind = "ins*" || kind = "del*" ->
        let tups = parse_tuple_list line (String.concat " " rest) in
        if kind = "ins*" then Ins_set (name, tups) else Del_set (name, tups)
    | kind :: name :: rest when (kind = "ins" || kind = "del") && rest <> []
      -> (
        let tup = String.trim (String.concat "" rest) in
        let len = String.length tup in
        if len < 2 || tup.[0] <> '(' || tup.[len - 1] <> ')' then fail ()
        else
          let inner = String.sub tup 1 (len - 2) in
          let comps =
            if String.trim inner = "" then []
            else
              List.map
                (fun s ->
                  match int_of_string_opt (String.trim s) with
                  | Some i -> i
                  | None -> fail ())
                (String.split_on_char ',' inner)
          in
          match kind with "ins" -> ins name comps | _ -> del name comps)
    | _ -> fail ()
end

(* random requests of the five tuple forms, with odd names and numbers *)
let gen_tuple_request =
  let open QCheck.Gen in
  let name = oneofl [ "E"; "M"; "b"; "s"; "Up"; "x_1"; "ins"; "(1)"; "*" ] in
  let num = oneof [ int_range 0 20; int_range (-5) 5; int; return max_int ] in
  let tuple = map Array.of_list (list_size (int_range 0 3) num) in
  oneof
    [
      map2 (fun n t -> Request.Ins (n, t)) name tuple;
      map2 (fun n t -> Request.Del (n, t)) name tuple;
      map2 (fun n a -> Request.Set (n, a)) name num;
      map2 (fun n ts -> Request.Ins_set (n, ts)) name (list_size (int_range 0 4) tuple);
      map2 (fun n ts -> Request.Del_set (n, ts)) name (list_size (int_range 0 4) tuple);
    ]

(* The [Format] printer the buffer printer replaced, kept as its oracle. *)
let oracle_to_string r =
  let pp_tuples ppf tups =
    List.iter (fun t -> Format.fprintf ppf " %a" Tuple.pp t) tups
  in
  match r with
  | Request.Ins (name, tup) -> Format.asprintf "ins %s %a" name Tuple.pp tup
  | Request.Del (name, tup) -> Format.asprintf "del %s %a" name Tuple.pp tup
  | Request.Set (name, a) -> Format.asprintf "set %s %d" name a
  | Request.Ins_set (name, tups) -> Format.asprintf "ins* %s%a" name pp_tuples tups
  | Request.Del_set (name, tups) -> Format.asprintf "del* %s%a" name pp_tuples tups
  | Request.Ins_def _ | Request.Del_def _ -> assert false

let request_to_string_law =
  QCheck.Test.make ~name:"to_string == Format printer on the tuple forms"
    ~count:2000
    (QCheck.make ~print:oracle_to_string gen_tuple_request)
    (fun r ->
      Request.to_string r = oracle_to_string r
      && Format.asprintf "%a" Request.pp r = oracle_to_string r)

(* valid request texts — printed requests, re-spaced, plus def forms —
   and random mutations of them: inserted, deleted and replaced
   characters drawn from the grammar's own alphabet *)
let gen_request_text =
  let open QCheck.Gen in
  let printed =
    oneof
      [
        map Request.to_string gen_tuple_request;
        oneofl
          [
            "insdef E (x, y) : x = y";
            "deldef  E (x,y):E(x,y) & x != y";
            "insdef b () : true";
            "insdef E";
            "ins  E ( 1 , 2 )";
            "ins E (1 2, 3)";
            "ins* E (1, 2)  (3,4)";
            "ins* E";
            "set s +4";
            "set s 0x1f";
            "del E (1_000)";
            "\tins E (1,\t2)\n";
          ];
      ]
  in
  let alphabet =
    oneofl [ ' '; ' '; '\t'; '('; ')'; ','; '-'; '+'; '0'; '7'; '*'; 'x'; ':'; 'i' ]
  in
  let mutate s =
    let* k = int_range 0 3 in
    let rec go s k =
      if k = 0 then return s
      else
        let n = String.length s in
        let* pos = int_range 0 n in
        let* c = alphabet in
        let* op = int_range 0 2 in
        let s =
          match op with
          | 0 -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos)
          | 1 when pos < n -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
          | _ when pos < n ->
              String.sub s 0 pos ^ String.make 1 c ^ String.sub s (pos + 1) (n - pos - 1)
          | _ -> s
        in
        go s (k - 1)
    in
    go s k
  in
  printed >>= mutate

let request_parse_law =
  let outcome parse s =
    match parse s with r -> Ok r | exception Failure msg -> Error msg
  in
  QCheck.Test.make ~name:"scanner parse == token-splitting oracle" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_request_text)
    (fun s ->
      let got = outcome Request.parse s and want = outcome Oracle.parse s in
      if got <> want then
        QCheck.Test.fail_reportf "scanner %s, oracle %s"
          (match got with Ok r -> Request.to_string r | Error m -> m)
          (match want with Ok r -> Request.to_string r | Error m -> m);
      true)

let test_request_valid () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[ "s" ] in
  check tb "ok" true (Request.valid v ~size:4 (Request.ins "E" [ 0; 3 ]));
  check tb "bad arity" false (Request.valid v ~size:4 (Request.ins "E" [ 0 ]));
  check tb "bad range" false (Request.valid v ~size:4 (Request.ins "E" [ 0; 4 ]));
  check tb "unknown" false (Request.valid v ~size:4 (Request.ins "F" [ 0; 0 ]));
  check tb "const" true (Request.valid v ~size:4 (Request.set "s" 3));
  check tb "const range" false (Request.valid v ~size:4 (Request.set "s" 4))

(* --- Program validation ------------------------------------------------- *)

let e2 = Vocab.make ~rels:[ ("E", 2) ] ~consts:[]
let aux1 = Vocab.make ~rels:[ ("P", 2) ] ~consts:[]
let init n = Structure.create ~size:n (Vocab.union e2 aux1)

let test_program_validation () =
  let bad_free () =
    Program.make ~name:"bad" ~input_vocab:e2 ~aux_vocab:aux1 ~init
      ~on_ins:
        [ ("E", Program.update ~params:[ "a"; "b" ]
             [ Program.rule_s "P" [ "x"; "y" ] "P(x, oops)" ]) ]
      ~query:Formula.True ()
  in
  (match bad_free () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbound variable accepted");
  let bad_arity () =
    Program.make ~name:"bad" ~input_vocab:e2 ~aux_vocab:aux1 ~init
      ~on_ins:
        [ ("E", Program.update ~params:[ "a" ] []) ]
      ~query:Formula.True ()
  in
  (match bad_arity () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "param count mismatch accepted");
  let bad_target () =
    Program.make ~name:"bad" ~input_vocab:e2 ~aux_vocab:aux1 ~init
      ~on_ins:
        [ ("E", Program.update ~params:[ "a"; "b" ]
             [ Program.rule_s "Q" [ "x" ] "x = a" ]) ]
      ~query:Formula.True ()
  in
  match bad_target () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown target accepted"

(* --- Runner semantics --------------------------------------------------- *)

(* A program whose two rules read each other: synchronous evaluation must
   use the pre-state for both. Aux: A and B unary; on ins to M, A' := B,
   B' := A (swap). *)
let swap_program =
  let input_vocab = Vocab.make ~rels:[ ("M", 1) ] ~consts:[] in
  let aux_vocab = Vocab.make ~rels:[ ("A", 1); ("B", 1) ] ~consts:[] in
  let init n =
    let st = Structure.create ~size:n (Vocab.union input_vocab aux_vocab) in
    Structure.add_tuple st "A" [| 0 |]
  in
  Program.make ~name:"swap" ~input_vocab ~aux_vocab ~init
    ~on_ins:
      [
        ( "M",
          Program.update ~params:[ "p" ]
            [
              Program.rule_s "A" [ "x" ] "B(x)";
              Program.rule_s "B" [ "x" ] "A(x)";
            ] );
      ]
    ~query:(Parser.parse "A(min)") ()

let test_synchronous_update () =
  let s0 = Runner.init swap_program ~size:3 in
  check tb "A(0) initially" true (Runner.query s0);
  let s1 = Runner.step s0 (Request.ins "M" [ 1 ]) in
  check tb "swapped once" false (Runner.query s1);
  let s2 = Runner.step s1 (Request.ins "M" [ 2 ]) in
  check tb "swapped back" true (Runner.query s2);
  (* B must have received A's old value, not the new empty A *)
  check tb "B(0) after one swap" true
    (Structure.mem (Runner.structure s1) "B" [| 0 |])

(* temporaries see earlier temporaries, rules see all temporaries *)
let test_temp_chaining () =
  let input_vocab = Vocab.make ~rels:[ ("M", 1) ] ~consts:[] in
  let aux_vocab = Vocab.make ~rels:[ ("Out", 1) ] ~consts:[] in
  let p =
    Program.make ~name:"temps" ~input_vocab ~aux_vocab
      ~init:(fun n -> Structure.create ~size:n (Vocab.union input_vocab aux_vocab))
      ~on_ins:
        [
          ( "M",
            Program.update ~params:[ "p" ]
              ~temps:
                [
                  Program.rule_s "T1" [ "x" ] "x = p";
                  Program.rule_s "T2" [ "x" ] "T1(x) | x = min";
                ]
              [ Program.rule_s "Out" [ "x" ] "T2(x)";
                Program.rule_s "M" [ "x" ] "M(x) | x = p" ] );
        ]
      ~query:(Parser.parse "Out(min)") ()
  in
  let s = Runner.step (Runner.init p ~size:4) (Request.ins "M" [ 2 ]) in
  check tb "T2 via T1" true (Structure.mem (Runner.structure s) "Out" [| 2 |]);
  check tb "T2 min" true (Runner.query s);
  (* temporaries must not leak into the state *)
  match Structure.rel (Runner.structure s) "T1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "temporary leaked into state"

let test_default_input_maintenance () =
  (* a program with no rule for the input relation still gets it
     maintained *)
  let p =
    Program.make ~name:"noop" ~input_vocab:e2 ~aux_vocab:aux1 ~init
      ~query:Formula.True ()
  in
  let s = Runner.step (Runner.init p ~size:3) (Request.ins "E" [ 0; 1 ]) in
  check tb "added" true (Structure.mem (Runner.input s) "E" [| 0; 1 |]);
  let s = Runner.step s (Request.del "E" [ 0; 1 ]) in
  check tb "removed" false (Structure.mem (Runner.input s) "E" [| 0; 1 |])

let test_invalid_request_rejected () =
  let p =
    Program.make ~name:"noop" ~input_vocab:e2 ~aux_vocab:aux1 ~init
      ~query:Formula.True ()
  in
  let s = Runner.init p ~size:3 in
  (match Runner.step s (Request.ins "E" [ 0; 5 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range accepted");
  match Runner.step s (Request.ins "P" [ 0; 1 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "aux relation accepted as input request"

let test_query_named () =
  let p =
    Program.make ~name:"named" ~input_vocab:e2 ~aux_vocab:aux1 ~init
      ~queries:[ ("edge", [ "x"; "y" ], Parser.parse "E(x, y)") ]
      ~query:Formula.True ()
  in
  let s = Runner.step (Runner.init p ~size:3) (Request.ins "E" [ 1; 2 ]) in
  check tb "named true" true (Runner.query_named s "edge" [ 1; 2 ]);
  check tb "named false" false (Runner.query_named s "edge" [ 2; 1 ]);
  (match Runner.query_named s "nope" [] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown query accepted");
  match Runner.query_named s "edge" [ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

let test_step_work () =
  let s = Runner.init swap_program ~size:5 in
  let _, w = Runner.step_work s (Request.ins "M" [ 0 ]) in
  check tb "work counted" true (w > 0)

(* --- PARITY end to end (Example 3.2) ------------------------------------ *)

let parity_qcheck =
  QCheck.Test.make ~name:"PARITY program == oracle (Example 3.2)" ~count:30
    QCheck.(pair (int_range 1 1000) (int_range 2 20))
    (fun (seed, size) ->
      let rng = Random.State.make [| seed |] in
      let reqs = Dynfo_programs.Parity.workload rng ~size ~length:80 in
      match
        Harness.check_program ~size ~oracle:Dynfo_programs.Parity.oracle
          Dynfo_programs.Parity.program reqs
      with
      | Harness.Ok _ -> true
      | _ -> false)

let test_parity_native () =
  let rng = Random.State.make [| 7 |] in
  let reqs = Dynfo_programs.Parity.workload rng ~size:12 ~length:200 in
  match
    Harness.compare_all ~size:12
      [
        Dyn.of_program Dynfo_programs.Parity.program;
        Dynfo_programs.Parity.native;
        Dynfo_programs.Parity.static;
      ]
      reqs
  with
  | Harness.Ok n -> check ti "all checkpoints" 200 n
  | m -> Alcotest.failf "%s" (Format.asprintf "%a" Harness.pp_outcome m)

(* --- Workload ----------------------------------------------------------- *)

let test_workload_validity () =
  let rng = Random.State.make [| 3 |] in
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[ "s" ] in
  let reqs =
    Workload.generate rng ~size:6 ~length:300
      (Workload.spec ~consts:[ "s" ] [ ("E", 2) ])
  in
  check ti "length" 300 (List.length reqs);
  check tb "all valid" true
    (List.for_all (Request.valid v ~size:6) reqs)

let test_workload_symmetric_no_self_loops () =
  let rng = Random.State.make [| 4 |] in
  let reqs = Workload.edge_churn rng ~size:5 ~length:200 () in
  check tb "no self loops" true
    (List.for_all
       (function
         | Request.Ins (_, t) | Request.Del (_, t) -> t.(0) <> t.(1)
         | _ -> true)
       reqs)

let test_workload_deletes_hit () =
  (* most deletes should target present tuples *)
  let rng = Random.State.make [| 5 |] in
  let reqs = Workload.edge_churn rng ~size:6 ~length:400 () in
  let live = Hashtbl.create 16 in
  let hits = ref 0 and dels = ref 0 in
  List.iter
    (function
      | Request.Ins (_, t) -> Hashtbl.replace live (Array.to_list t) ()
      | Request.Del (_, t) ->
          incr dels;
          if Hashtbl.mem live (Array.to_list t) then incr hits;
          Hashtbl.remove live (Array.to_list t)
      | _ -> ())
    reqs;
  check tb "most deletes hit" true (!dels = 0 || 2 * !hits > !dels)

(* --- Harness ----------------------------------------------------------- *)

let test_harness_detects_divergence () =
  let ok_dyn name answer =
    Dyn.of_fun ~name ~create:(fun _ -> 0)
      ~apply:(fun c _ -> c + 1)
      ~query:(fun c -> answer c)
  in
  let a = ok_dyn "always-false" (fun _ -> false) in
  let b = ok_dyn "flips-at-3" (fun c -> c >= 3) in
  match
    Harness.compare_all ~size:4 [ a; b ]
      (List.init 5 (fun _ -> Request.ins "E" [ 0; 1 ]))
  with
  | Harness.Mismatch m -> check ti "diverged at third request" 2 m.at
  | Harness.Ok _ -> Alcotest.fail "divergence missed"

let () =
  Alcotest.run "core"
    [
      ( "request",
        [
          Alcotest.test_case "parse" `Quick test_request_parse;
          Alcotest.test_case "roundtrip" `Quick test_request_roundtrip;
          QCheck_alcotest.to_alcotest request_to_string_law;
          QCheck_alcotest.to_alcotest request_parse_law;
          Alcotest.test_case "validity" `Quick test_request_valid;
        ] );
      ( "program",
        [ Alcotest.test_case "validation" `Quick test_program_validation ] );
      ( "runner",
        [
          Alcotest.test_case "synchronous rules" `Quick test_synchronous_update;
          Alcotest.test_case "temporary chaining" `Quick test_temp_chaining;
          Alcotest.test_case "default input maintenance" `Quick
            test_default_input_maintenance;
          Alcotest.test_case "invalid requests rejected" `Quick
            test_invalid_request_rejected;
          Alcotest.test_case "named queries" `Quick test_query_named;
          Alcotest.test_case "work accounting" `Quick test_step_work;
        ] );
      ( "parity",
        [
          QCheck_alcotest.to_alcotest parity_qcheck;
          Alcotest.test_case "three-way agreement" `Quick test_parity_native;
        ] );
      ( "workload",
        [
          Alcotest.test_case "validity" `Quick test_workload_validity;
          Alcotest.test_case "no self loops" `Quick
            test_workload_symmetric_no_self_loops;
          Alcotest.test_case "deletes hit live tuples" `Quick
            test_workload_deletes_hit;
        ] );
      ( "harness",
        [
          Alcotest.test_case "detects divergence" `Quick
            test_harness_detects_divergence;
        ] );
    ]

(* The serving subsystem (lib/server): JSON codec round trips (QCheck),
   wire protocol encode/decode for every op, snapshot encode/decode with
   corruption rejection, snapshot -> restore -> lockstep-continue with
   identical answers and work counts, the batch == singleton-sequence
   oracle over the whole registry on all four backends, session
   coalescing under concurrent submitters, the caller-runs drain under
   stress, close, a held leader and a raising slice, and the daemon
   end-to-end over a real Unix socket, including a cold create that
   must not stall a live session. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
open Dynfo_server

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let ts = Alcotest.string

(* --- JSON ------------------------------------------------------------------ *)

(* Floats from a small decimal grid so that the %.12g printing round
   trips exactly; full-precision doubles would need 17 digits. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun i -> Json.Float (float_of_int i /. 8.)) (int_range (-8000) 8000);
        map (fun s -> Json.Str s) (string_size ~gen:char (int_bound 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size ~gen:char (int_bound 6)) (self (n / 2)))) );
             ])

let json_roundtrip =
  QCheck.Test.make ~name:"Json.parse inverts Json.to_string" ~count:500
    (QCheck.make json_gen)
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' when v' = v -> true
      | Ok v' ->
          QCheck.Test.fail_reportf "reparsed %s as %s" (Json.to_string v)
            (Json.to_string v')
      | Error msg ->
          QCheck.Test.fail_reportf "failed to reparse %s: %s"
            (Json.to_string v) msg)

(* The option-per-character parser that [Json.parse]'s by-index descent
   replaced, kept verbatim as its oracle: same values, same error
   offsets, same messages. *)
module Json_oracle = struct
  open Json

  exception Bad of string * int

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (msg, !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let hex4 () =
      let v = ref 0 in
      for _ = 1 to 4 do
        let d =
          match peek () with
          | Some c when c >= '0' && c <= '9' -> Char.code c - Char.code '0'
          | Some c when c >= 'a' && c <= 'f' -> Char.code c - Char.code 'a' + 10
          | Some c when c >= 'A' && c <= 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> fail "expected hex digit"
        in
        advance ();
        v := (!v * 16) + d
      done;
      !v
    in
    let add_utf8 buf cp =
      (* surrogate pairs are decoded by the caller; [cp] is a scalar value *)
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then (
        Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
      else if cp < 0x10000 then (
        Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
      else (
        Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' ->
                advance ();
                Buffer.add_char buf '"';
                go ()
            | Some '\\' ->
                advance ();
                Buffer.add_char buf '\\';
                go ()
            | Some '/' ->
                advance ();
                Buffer.add_char buf '/';
                go ()
            | Some 'n' ->
                advance ();
                Buffer.add_char buf '\n';
                go ()
            | Some 'r' ->
                advance ();
                Buffer.add_char buf '\r';
                go ()
            | Some 't' ->
                advance ();
                Buffer.add_char buf '\t';
                go ()
            | Some 'b' ->
                advance ();
                Buffer.add_char buf '\b';
                go ()
            | Some 'f' ->
                advance ();
                Buffer.add_char buf '\012';
                go ()
            | Some 'u' ->
                advance ();
                let cp = hex4 () in
                let cp =
                  if cp >= 0xd800 && cp <= 0xdbff then (
                    (* high surrogate: the low half must follow *)
                    expect '\\';
                    expect 'u';
                    let lo = hex4 () in
                    if lo < 0xdc00 || lo > 0xdfff then
                      fail "invalid low surrogate"
                    else
                      0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
                  else if cp >= 0xdc00 && cp <= 0xdfff then
                    fail "stray low surrogate"
                  else cp
                in
                add_utf8 buf cp;
                go ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "raw control char in string"
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then advance ();
      let digits () =
        let had = ref false in
        let rec go () =
          match peek () with
          | Some c when c >= '0' && c <= '9' ->
              had := true;
              advance ();
              go ()
          | _ -> ()
        in
        go ();
        if not !had then fail "expected digit"
      in
      digits ();
      (match peek () with
      | Some '.' ->
          is_float := true;
          advance ();
          digits ()
      | _ -> ());
      (match peek () with
      | Some ('e' | 'E') ->
          is_float := true;
          advance ();
          (match peek () with
          | Some ('+' | '-') -> advance ()
          | _ -> ());
          digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      if !is_float then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            List [])
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            List (items [])
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec fields acc =
              let kv = field () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields (kv :: acc)
              | Some '}' ->
                  advance ();
                  List.rev (kv :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (fields [])
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (msg, p) ->
        Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)
end

(* printed values and random mutations of them, drawn from JSON's own
   alphabet, so that most inputs stop somewhere mid-descent *)
let json_text_gen =
  let open QCheck.Gen in
  let alphabet =
    oneofl
      [ ' '; '"'; '\\'; 'u'; 'd'; '8'; '0'; 'e'; '-'; '.'; ','; ':'; '['; ']';
        '{'; '}'; 'n'; 't'; '\n'; '\001' ]
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
  oneof
    [
      map Json.to_string json_gen;
      oneofl
        [
          "\"\\u00e9\\ud83d\\ude00\"";
          "\"\\ud800\\u0041\"";
          "\"a\\/b\\f\"";
          "-12.5e+3";
          "{\"op\":\"update\",\"reqs\":[\"ins E (1,2)\"]}";
        ];
    ]
  >>= mutate

let json_parse_law =
  QCheck.Test.make ~name:"Json.parse == option-per-character oracle"
    ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") json_text_gen)
    (fun s ->
      let got = Json.parse s and want = Json_oracle.parse s in
      let show = function Ok v -> Json.to_string v | Error m -> m in
      if got <> want then
        QCheck.Test.fail_reportf "parse %s, oracle %s" (show got) (show want);
      true)

let test_json_cases () =
  let ok s v =
    match Json.parse s with
    | Ok v' -> check tb (Printf.sprintf "parse %s" s) true (v = v')
    | Error msg -> Alcotest.failf "parse %s failed: %s" s msg
  in
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse %s should have failed" s
    | Error _ -> ()
  in
  ok "null" Json.Null;
  ok " [ 1 , -2 ,3.5, \"a\" ] "
    (Json.List [ Json.Int 1; Json.Int (-2); Json.Float 3.5; Json.Str "a" ]);
  ok "{\"a\":true,\"b\":{}}"
    (Json.Obj [ ("a", Json.Bool true); ("b", Json.Obj []) ]);
  ok "\"\\u0041\\n\\t\\\\\"" (Json.Str "A\n\t\\");
  (* surrogate pair and 2-byte code point decode to UTF-8 *)
  ok "\"\\u00e9\\ud83d\\ude00\"" (Json.Str "\xc3\xa9\xf0\x9f\x98\x80");
  ok "1e3" (Json.Float 1000.);
  bad "";
  bad "tru";
  bad "[1,]";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "\"\\x\"";
  bad "\"\\ud800\"";
  bad "1 2";
  bad "{\"a\" 1}";
  (* the printer never emits raw newlines: one value = one wire line *)
  check tb "no raw newline in printed string" false
    (String.contains (Json.to_string (Json.Str "a\nb\x01")) '\n')

(* --- wire ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let cmds : Wire.cmd list =
    [
      Wire.Hello;
      Wire.Create
        {
          session = None;
          program = "reach_u";
          size = 8;
          backend = `Auto;
          engine = `Seq;
          coalesce = `Commute;
        };
      Wire.Create
        {
          session = Some "mine";
          program = "parity";
          size = 16;
          backend = `Delta;
          engine = `Par;
          coalesce = `Fifo;
        };
      Wire.Attach { session = "s1" };
      Wire.Destroy { session = "s1" };
      Wire.Update
        {
          session = "s1";
          reqs = [ Request.ins "E" [ 0; 1 ]; Request.del "E" [ 2; 3 ];
                   Request.set "s" 4 ];
        };
      Wire.Query { session = "s1"; name = None; args = [] };
      Wire.Query { session = "s1"; name = Some "reach"; args = [ 0; 2 ] };
      Wire.Snapshot { session = "s1"; path = "/tmp/x.snap" };
      Wire.Restore
        {
          session = None;
          path = "/tmp/x.snap";
          backend = `Bulk;
          engine = `Seq;
          coalesce = `Commute;
        };
      Wire.Stats { session = "s1" };
      Wire.List_sessions;
      Wire.Shutdown;
    ]
  in
  List.iteri
    (fun i cmd ->
      let id = i + 1 in
      match Wire.cmd_of_line (Wire.cmd_line ~id cmd) with
      | id', Ok cmd' ->
          check ti "id" id id';
          check tb "cmd round trip" true (cmd = cmd')
      | _, Error msg -> Alcotest.failf "decode failed: %s" msg)
    cmds;
  (match Wire.cmd_of_line "{\"id\":7,\"op\":\"frobnicate\"}" with
  | 7, Error _ -> ()
  | _ -> Alcotest.fail "unknown op must decode to its id plus an error");
  (match Wire.cmd_of_line "not json" with
  | 0, Error _ -> ()
  | _ -> Alcotest.fail "garbage must fail");
  let r = Wire.ok ~id:3 [ ("applied", Json.Int 2) ] in
  (match Wire.resp_of_line (Wire.resp_line r) with
  | Ok r' -> check tb "ok resp round trip" true (r = r')
  | Error msg -> Alcotest.failf "resp decode failed: %s" msg);
  let e = Wire.error ~id:4 "boom" in
  match Wire.resp_of_line (Wire.resp_line e) with
  | Ok e' -> check tb "error resp round trip" true (e = e')
  | Error msg -> Alcotest.failf "resp decode failed: %s" msg

(* --- snapshot -------------------------------------------------------------- *)

let reach_structure ~size ~length =
  let e = Registry.find "reach_u" in
  let rng = Random.State.make [| 3 |] in
  let reqs = e.workload rng ~size ~length in
  (e, reqs, Runner.run (Runner.init e.program ~size) reqs)

let test_snapshot_roundtrip () =
  let _, _, s = reach_structure ~size:8 ~length:40 in
  let st = Runner.structure s in
  let data = Snapshot.encode ~program:"reach_u" ~steps:40 st in
  let l = Snapshot.decode data in
  check ts "program" "reach_u" l.Snapshot.snap_program;
  check ti "steps" 40 l.Snapshot.snap_steps;
  check tb "structure round trip" true
    (Structure.equal st l.Snapshot.snap_structure);
  (* dense encoding: a near-full relation must also round trip *)
  let v = Vocab.make ~rels:[ ("R", 2); ("S", 3) ] ~consts:[ "c" ] in
  let full = Structure.create ~size:16 v in
  let full = Structure.with_const full "c" 11 in
  let full =
    Structure.with_rel full "R"
      (Relation.of_list ~arity:2
         (List.concat_map
            (fun x -> List.init 16 (fun y -> [| x; y |]))
            (List.init 16 Fun.id)))
  in
  let data = Snapshot.encode ~program:"dense" ~steps:0 full in
  let l = Snapshot.decode data in
  check tb "dense structure round trip" true
    (Structure.equal full l.Snapshot.snap_structure);
  (* file round trip *)
  let path = Filename.temp_file "dynfo_test" ".snap" in
  let bytes = Snapshot.save ~path ~program:"reach_u" ~steps:7 st in
  check ti "save size" (String.length (Snapshot.encode ~program:"reach_u" ~steps:7 st)) bytes;
  let l = Snapshot.load ~path in
  check tb "file round trip" true (Structure.equal st l.Snapshot.snap_structure);
  Sys.remove path

let test_snapshot_corruption () =
  let _, _, s = reach_structure ~size:8 ~length:30 in
  let data = Snapshot.encode ~program:"reach_u" ~steps:30 (Runner.structure s) in
  let expect_corrupt what d =
    match Snapshot.decode d with
    | _ -> Alcotest.failf "%s should have been rejected" what
    | exception Snapshot.Corrupt _ -> ()
  in
  expect_corrupt "truncated file" (String.sub data 0 (String.length data - 5));
  expect_corrupt "empty file" "";
  expect_corrupt "bad magic" ("XX" ^ String.sub data 2 (String.length data - 2));
  let flip i d =
    let b = Bytes.of_string d in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  (* a flipped byte in the body breaks the checksum; in the trailing 8
     bytes it breaks it too *)
  expect_corrupt "flipped body byte" (flip (String.length data / 2) data);
  expect_corrupt "flipped checksum byte" (flip (String.length data - 1) data);
  (* a structurally valid but oversized declared length must not crash *)
  expect_corrupt "truncated mid-header" (String.sub data 0 14);
  (* restoring a snapshot against a program whose vocabulary it does not
     cover is rejected by Runner.restore *)
  let v = Vocab.make ~rels:[ ("Z", 1) ] ~consts:[] in
  let tiny = Structure.create ~size:4 v in
  let l = Snapshot.decode (Snapshot.encode ~program:"reach_u" ~steps:0 tiny) in
  match Runner.restore (Registry.find "reach_u").program l.Snapshot.snap_structure with
  | _ -> Alcotest.fail "restore with missing vocabulary should fail"
  | exception (Invalid_argument _ | Vocab.Unknown_symbol _) -> ()

(* snapshot -> restore -> continue in lockstep with the uninterrupted
   runner: identical answers AND identical per-step work counts, on all
   four backends *)
let test_snapshot_lockstep () =
  Dynfo_analysis.Advisor.install ();
  List.iter
    (fun (name, size, length) ->
      let e = Registry.find name in
      List.iter
        (fun backend ->
          let rng = Random.State.make [| 5 |] in
          let reqs = e.workload rng ~size ~length in
          let k = length / 2 in
          let prefix = List.filteri (fun i _ -> i < k) reqs in
          let suffix = List.filteri (fun i _ -> i >= k) reqs in
          let a = Runner.run ~backend (Runner.init e.program ~size) prefix in
          let data =
            Snapshot.encode ~program:name ~steps:(List.length prefix)
              (Runner.structure a)
          in
          let l = Snapshot.decode data in
          let b = Runner.restore e.program l.Snapshot.snap_structure in
          check tb
            (Printf.sprintf "%s restored structure equal" name)
            true
            (Structure.equal (Runner.structure a) (Runner.structure b));
          let sa = ref a and sb = ref b in
          List.iter
            (fun req ->
              let a', wa = Runner.step_work ~backend !sa req in
              let b', wb = Runner.step_work ~backend !sb req in
              sa := a';
              sb := b';
              check ti (Printf.sprintf "%s lockstep work" name) wa wb;
              check tb
                (Printf.sprintf "%s lockstep answer" name)
                (Runner.query !sa) (Runner.query !sb))
            suffix)
        ([ `Tuple; `Bulk; `Delta; `Auto ] : Runner.backend list))
    [ ("reach_u", 7, 40); ("parity", 20, 40); ("lca", 7, 30) ]

(* --- batch == singleton sequence (the serving layer's oracle) -------------- *)

let batch_equals_singletons =
  QCheck.Test.make
    ~name:"step_batch == singleton fold on every registry program x backend"
    ~count:8
    QCheck.(pair (int_range 0 1000000) (int_range 1 6))
    (fun (seed, chunk) ->
      Dynfo_analysis.Advisor.install ();
      List.iter
        (fun (e : Registry.entry) ->
          let size = e.default_size in
          let rng = Random.State.make [| seed |] in
          let reqs = e.workload rng ~size ~length:10 in
          let rec chunks = function
            | [] -> []
            | l ->
                let k = min chunk (List.length l) in
                List.filteri (fun i _ -> i < k) l
                :: chunks (List.filteri (fun i _ -> i >= k) l)
          in
          List.iter
            (fun backend ->
              let singles = Runner.run ~backend (Runner.init e.program ~size) reqs in
              let batched =
                List.fold_left
                  (Runner.step_batch ~backend)
                  (Runner.init e.program ~size)
                  (chunks reqs)
              in
              if
                not
                  (Structure.equal
                     (Runner.structure singles)
                     (Runner.structure batched))
              then
                QCheck.Test.fail_reportf
                  "batch mismatch: %s backend %s chunk %d seed %d" e.name
                  (match backend with
                  | `Tuple -> "tuple"
                  | `Bulk -> "bulk"
                  | `Delta -> "delta"
                  | `Auto -> "auto")
                  chunk seed)
            ([ `Tuple; `Bulk; `Delta; `Auto ] : Runner.backend list))
        Registry.all;
      true)

let test_batch_atomicity () =
  let e = Registry.find "reach_u" in
  let s = Runner.init e.program ~size:6 in
  let bad =
    [ Request.ins "E" [ 0; 1 ]; Request.ins "E" [ 0; 99 ] ]
    (* second member out of range *)
  in
  match Runner.step_batch s bad with
  | _ -> Alcotest.fail "invalid batch member must reject the batch"
  | exception Invalid_argument _ ->
      (* nothing ran: the pre-state still answers like the empty one *)
      check tb "state untouched" true
        (Structure.equal (Runner.structure s)
           (Runner.structure (Runner.init e.program ~size:6)))

let test_par_batch () =
  let e = Registry.find "reach_u" in
  let rng = Random.State.make [| 9 |] in
  let reqs = e.workload rng ~size:7 ~length:24 in
  Dynfo_engine.Pool.with_pool ~lanes:2 (fun pool ->
      let seq = Runner.run (Runner.init e.program ~size:7) reqs in
      let par =
        Dynfo_engine.Par_runner.step_batch
          (Dynfo_engine.Par_runner.init pool e.program ~size:7)
          reqs
      in
      check tb "par batch answers" (Runner.query seq)
        (Dynfo_engine.Par_runner.query par);
      check tb "par batch structures" true
        (Structure.equal (Runner.structure seq)
           (Dynfo_engine.Par_runner.structure par)))

(* --- sessions -------------------------------------------------------------- *)

(* Concurrent submitters on one session. Distinct insert-only requests
   commute, and parity's auxiliary state is a pure function of the input
   set (unlike e.g. reach_u's, which is history-dependent: different
   interleavings build different — equally valid — auxiliary relations),
   so the final structure must equal an offline replay regardless of how
   the threads' updates interleaved. Ticks never exceed steps; with
   several threads racing one worker some coalescing is likely, but
   scheduling makes that unassertable. *)
let test_session_concurrent () =
  let e = Registry.find "parity" in
  let size = 16 in
  let elems = List.init 12 Fun.id in
  let sess =
    Session.create ~id:"t" ~name:"parity" ~backend:`Delta e.program ~size
  in
  let per_thread = 3 in
  let slices =
    List.init per_thread (fun k ->
        List.filteri (fun i _ -> i mod per_thread = k) elems)
  in
  let threads =
    List.map
      (fun slice ->
        Thread.create
          (fun () ->
            List.iter
              (fun a -> ignore (Session.update sess [ Request.ins "M" [ a ] ]))
              slice)
          ())
      slices
  in
  List.iter Thread.join threads;
  let st = Session.stats sess in
  check ti "all steps applied" (List.length elems) st.Session.st_steps;
  check tb "ticks <= steps" true (st.Session.st_ticks <= st.Session.st_steps);
  let offline =
    Runner.run
      (Runner.init e.program ~size)
      (List.map (fun a -> Request.ins "M" [ a ]) elems)
  in
  check tb "concurrent result == offline replay" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  (* invalid batches are rejected without wedging the session *)
  (match Session.update sess [ Request.ins "M" [ 99 ] ] with
  | _ -> Alcotest.fail "invalid update must raise"
  | exception Invalid_argument _ -> ());
  check tb "session still answers" (Runner.query offline)
    (Session.query sess []);
  Session.close sess;
  match Session.update sess [ Request.ins "M" [ 0 ] ] with
  | _ -> Alcotest.fail "closed session must reject"
  | exception Invalid_argument _ -> ()

(* --- commute coalescing ----------------------------------------------------- *)

(* queue-drain dedupe of identical back-to-back updates, and the batch
   law behind it: the coalesced tick must be equivalent to the
   submitted order, duplicates included *)
let test_session_dedupe () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  let e = Registry.find "parity" in
  let size = 8 in
  let batch =
    [
      Request.ins "M" [ 0 ]; Request.ins "M" [ 0 ]; Request.ins "M" [ 1 ];
      Request.ins "M" [ 1 ]; Request.del "M" [ 0 ]; Request.del "M" [ 0 ];
      Request.ins "M" [ 2 ];
    ]
  in
  let sess =
    Session.create ~id:"d" ~name:"parity" ~backend:`Tuple e.program ~size
  in
  let applied, _ = Session.update sess batch in
  check ti "whole batch acknowledged" (List.length batch) applied;
  let st = Session.stats sess in
  check ti "steps count submitted requests" (List.length batch)
    st.Session.st_steps;
  check ti "back-to-back duplicates collapsed" 3 st.Session.st_deduped;
  let offline = Runner.run (Runner.init e.program ~size) batch in
  check tb "dedupe preserves the state" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  Session.close sess;
  (* fifo mode: the same exchange exploits no law *)
  let fifo =
    Session.create ~id:"f" ~name:"parity" ~backend:`Tuple ~coalesce:`Fifo
      e.program ~size
  in
  ignore (Session.update fifo batch);
  let st = Session.stats fifo in
  check ti "fifo dedupes nothing" 0 st.Session.st_deduped;
  check ti "fifo elides nothing" 0 st.Session.st_elided;
  check tb "fifo reaches the same state" true
    (Structure.equal (Runner.structure offline) (Session.structure fifo));
  Session.close fifo

(* two independent input relations feeding disjoint auxiliaries, with a
   named query per side: updates on one side are provably invisible to
   the other side's query, so the commute drain may let them overtake
   pending queries — under concurrent query hammering the state must
   still equal the offline replay and every query must be answered *)
let two_vocab = Vocab.make ~rels:[ ("R", 1); ("S", 1) ] ~consts:[]
let two_aux = Vocab.make ~rels:[ ("AR", 0); ("AS", 0) ] ~consts:[]

let two_sub =
  Program.make ~name:"two-sub" ~input_vocab:two_vocab ~aux_vocab:two_aux
    ~init:(fun n -> Structure.create ~size:n (Vocab.union two_vocab two_aux))
    ~on_ins:
      [
        ("R", Program.update ~params:[ "a" ] [ Program.rule_s "AR" [] "AR() | R(a)" ]);
        ("S", Program.update ~params:[ "a" ] [ Program.rule_s "AS" [] "AS() | S(a)" ]);
      ]
    ~queries:[ ("qr", [], Parser.parse "AR()"); ("qs", [], Parser.parse "AS()") ]
    ~query:(Parser.parse "AR() & AS()") ()

let test_session_mixed_traffic () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  let size = 8 in
  let sess =
    Session.create ~id:"h" ~name:"two-sub" ~backend:`Tuple two_sub ~size
  in
  let stop = Atomic.make false in
  let qthreads =
    List.map
      (fun q ->
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              ignore (Session.query sess ~name:q []);
              Thread.yield ()
            done)
          ())
      [ "qr"; "qs" ]
  in
  let reqs =
    List.concat_map
      (fun i -> [ Request.ins "R" [ i mod size ]; Request.ins "S" [ (i + 3) mod size ] ])
      (List.init 40 Fun.id)
  in
  List.iter (fun r -> ignore (Session.update sess [ r ])) reqs;
  Atomic.set stop true;
  List.iter Thread.join qthreads;
  let offline = Runner.run (Runner.init two_sub ~size) reqs in
  check tb "mixed traffic state == offline replay" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  check tb "settled answer" (Runner.query offline) (Session.query sess []);
  let st = Session.stats sess in
  check ti "all steps applied" (List.length reqs) st.Session.st_steps;
  check tb "hoist counter is sane" true
    (st.Session.st_hoisted >= 0 && st.Session.st_hoisted <= st.Session.st_steps);
  Session.close sess

(* --- the caller-runs drain -------------------------------------------------- *)

(* parity plus a named membership query, so a caller can check that its
   own update is visible to its next query whatever the other callers
   did meanwhile *)
let member =
  let p = (Registry.find "parity").program in
  { p with
    Program.name = "parity-member";
    queries = [ ("has", [ "x" ], Parser.parse "M(x)") ] }

(* Every watched thread must finish within [seconds], or the test fails
   instead of hanging on a wedged session. Failures inside a thread are
   collected and reported, not lost with the thread. *)
let run_watched ?(seconds = 30.) bodies =
  let finished = Atomic.make 0 in
  let errors = Mutex.create () and msgs = ref [] in
  let threads =
    List.map
      (fun body ->
        Thread.create
          (fun () ->
            (try body ()
             with e ->
               Mutex.protect errors (fun () ->
                   msgs := Printexc.to_string e :: !msgs));
            Atomic.incr finished)
          ())
      bodies
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get finished < List.length bodies do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "watchdog: %d of %d threads still running after %.0f s"
        (List.length bodies - Atomic.get finished)
        (List.length bodies) seconds;
    Thread.delay 0.01
  done;
  List.iter Thread.join threads;
  List.iter (fun m -> Alcotest.fail m) !msgs

(* 4 threads of mixed update / query / snapshot traffic on one session.
   Each thread owns the elements congruent to its index mod 4, so the
   threads' requests commute and the final structure must equal any
   concatenation of their accepted sequences. Every accepted update call
   is either a tick's first job or coalesced into one. *)
let test_session_stress () =
  Dynfo_analysis.Commute.install ();
  let size = 16 and threads = 4 and calls = 150 in
  let sess = Session.create ~id:"x" ~name:"parity" ~backend:`Delta member ~size in
  let accepted = Array.make threads [] (* newest first *) in
  let body k () =
    let rng = Random.State.make [| k |] in
    let mine = Array.make size false in
    let path = Filename.temp_file (Printf.sprintf "dynfo_stress%d" k) ".snap" in
    for i = 1 to calls do
      if i mod 10 = 0 then (
        match Session.update sess [ Request.ins "M" [ size + k ] ] with
        | _ -> failwith "out-of-range update accepted"
        | exception Invalid_argument _ -> ())
      else if i mod 25 = 0 then begin
        if Session.snapshot sess ~path <= 0 then failwith "empty snapshot"
      end
      else begin
        let a = k + (threads * Random.State.int rng (size / threads)) in
        let r = if mine.(a) then Request.del "M" [ a ] else Request.ins "M" [ a ] in
        let applied, _ = Session.update sess [ r ] in
        if applied <> 1 then failwith "applied <> 1";
        mine.(a) <- not mine.(a);
        accepted.(k) <- r :: accepted.(k);
        if Session.query sess ~name:"has" [ a ] <> mine.(a) then
          failwith (Printf.sprintf "thread %d: query missed its own update" k)
      end
    done;
    Sys.remove path
  in
  run_watched (List.init threads body);
  let reqs = List.concat_map List.rev (Array.to_list accepted) in
  let st = Session.stats sess in
  check ti "ticks + coalesced = accepted update calls" (List.length reqs)
    (st.Session.st_ticks + st.Session.st_coalesced);
  let offline = Runner.run (Runner.init member ~size) reqs in
  check tb "final structure == offline replay" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  Session.close sess

(* A one-shot gate in the commute oracle of one program value: the first
   drain that asks for it blocks until [open_gate], so a test can hold a
   leader in the middle of its slice. Other programs get the installed
   analysis' oracle, which is reinstalled afterwards. *)
type gate = {
  g_lock : Mutex.t;
  g_cond : Condition.t;
  mutable entered : bool;
  mutable opened : bool;
}

let with_gate (p : Program.t) f =
  let g =
    { g_lock = Mutex.create (); g_cond = Condition.create (); entered = false;
      opened = false }
  in
  Runner.set_commute_oracle (fun q ->
      if q != p then Dynfo_analysis.Commute.oracle_of q
      else begin
        Mutex.protect g.g_lock (fun () ->
            if not g.entered then begin
              g.entered <- true;
              Condition.broadcast g.g_cond;
              while not g.opened do
                Condition.wait g.g_cond g.g_lock
              done
            end);
        Runner.null_oracle
      end);
  let await_leader () =
    Mutex.protect g.g_lock (fun () ->
        while not g.entered do
          Condition.wait g.g_cond g.g_lock
        done)
  in
  let open_gate () =
    Mutex.protect g.g_lock (fun () ->
        g.opened <- true;
        Condition.broadcast g.g_cond)
  in
  Fun.protect
    ~finally:(fun () ->
      open_gate ();
      Dynfo_analysis.Commute.install ())
    (fun () -> f ~await_leader ~open_gate)

let test_session_close_drain () =
  Dynfo_analysis.Commute.install ();
  let p = { member with Program.name = "parity-close" } in
  let sess = Session.create ~id:"c" ~name:"parity" ~backend:`Tuple p ~size:8 in
  with_gate p (fun ~await_leader ~open_gate ->
      let answer = ref None in
      let leader =
        Thread.create
          (fun () -> answer := Some (Session.update sess [ Request.ins "M" [ 1 ] ]))
          ()
      in
      await_leader ();
      let closed = Atomic.make false and steps_at_close = ref (-1) in
      let closer =
        Thread.create
          (fun () ->
            Session.close sess;
            steps_at_close := (Session.stats sess).Session.st_steps;
            Atomic.set closed true)
          ()
      in
      Thread.delay 0.2;
      check tb "close waits for the running slice" false (Atomic.get closed);
      open_gate ();
      Thread.join closer;
      check ti "close returned after the in-flight call was answered" 1
        !steps_at_close;
      Thread.join leader;
      check tb "in-flight caller answered" true
        (match !answer with Some (1, _) -> true | _ -> false));
  match Session.update sess [ Request.ins "M" [ 2 ] ] with
  | _ -> Alcotest.fail "a submit after close must raise"
  | exception Invalid_argument _ -> ()

let test_session_held_leader () =
  Dynfo_analysis.Commute.install ();
  let p = { member with Program.name = "parity-held" } in
  let size = 8 in
  let sess = Session.create ~id:"l" ~name:"parity" ~backend:`Tuple p ~size in
  with_gate p (fun ~await_leader ~open_gate ->
      let submit a =
        Thread.create (fun () -> ignore (Session.update sess [ Request.ins "M" [ a ] ])) ()
      in
      let leader = submit 0 in
      await_leader ();
      let waiters = [ submit 1; submit 2 ] in
      (* let both waiters queue behind the held slice *)
      Thread.delay 0.2;
      open_gate ();
      List.iter Thread.join (leader :: waiters));
  let st = Session.stats sess in
  check ti "leader's tick + one tick for both waiters" 2 st.Session.st_ticks;
  check tb "the waiters coalesced" true (st.Session.st_coalesced >= 1);
  let offline =
    Runner.run (Runner.init p ~size) (List.map (fun a -> Request.ins "M" [ a ]) [ 0; 1; 2 ])
  in
  check tb "state == offline replay" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  Session.close sess

(* An exception escaping the drain (here: the oracle lookup at the start
   of a slice) answers every job of the slice with it and releases the
   lead, so later calls are still served. *)
let test_session_raising_drain () =
  Dynfo_analysis.Commute.install ();
  let p = { member with Program.name = "parity-raise" } in
  let sess = Session.create ~id:"r" ~name:"parity" ~backend:`Tuple p ~size:8 in
  let armed = Atomic.make true in
  Runner.set_commute_oracle (fun q ->
      if q == p && Atomic.exchange armed false then failwith "oracle down"
      else Dynfo_analysis.Commute.oracle_of q);
  Fun.protect ~finally:Dynfo_analysis.Commute.install (fun () ->
      run_watched ~seconds:10.
        [
          (fun () ->
            match Session.update sess [ Request.ins "M" [ 1 ] ] with
            | _ -> failwith "the raising slice must answer with its exception"
            | exception Failure _ -> ());
        ];
      run_watched ~seconds:10.
        [ (fun () -> ignore (Session.update sess [ Request.ins "M" [ 2 ] ])) ]);
  check tb "the session still answers" true (Session.query sess ~name:"has" [ 2 ]);
  Session.close sess

(* --- end to end over a Unix socket ----------------------------------------- *)

let test_sock () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dynfo_test_%d.sock" (Unix.getpid ()))

let rec connect tries =
  match Client.connect (`Unix (test_sock ())) with
  | c -> c
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
    when tries > 0 ->
      Thread.delay 0.05;
      connect (tries - 1)

(* [extra] programs are served besides the registry's *)
let with_server ?(extra = []) f =
  let find_program name =
    match List.assoc_opt name extra with
    | Some p -> Some p
    | None -> (
        match Registry.find name with
        | e -> Some e.Registry.program
        | exception Not_found -> None)
  in
  let server_thread =
    Thread.create
      (fun () ->
        ignore
          (Server.run
             { Server.addr = `Unix (test_sock ()); lanes = Some 2; find_program }))
      ()
  in
  let client = connect 100 in
  Fun.protect
    ~finally:(fun () ->
      (try Client.shutdown client with Failure _ -> ());
      Client.close client;
      Thread.join server_thread)
    (fun () -> f client)

let test_daemon_end_to_end () =
  Dynfo_analysis.Advisor.install ();
  with_server (fun client ->
      let server_name, version = Client.hello client in
      check ts "server name" "dynfo" server_name;
      check ti "protocol version" Wire.version version;
      let e = Registry.find "reach_u" in
      let size = 8 in
      let rng = Random.State.make [| 21 |] in
      let reqs = e.workload rng ~size ~length:60 in
      let k = 30 in
      let prefix = List.filteri (fun i _ -> i < k) reqs in
      let suffix = List.filteri (fun i _ -> i >= k) reqs in
      let session =
        Client.create client ~backend:`Delta ~program:"reach_u" ~size ()
      in
      let applied, _work = Client.update client ~session prefix in
      check ti "applied" k applied;
      let offline_prefix = Runner.run (Runner.init e.program ~size) prefix in
      check tb "served answer after prefix" (Runner.query offline_prefix)
        (Client.query client ~session []);
      (* snapshot, restore into a second live session, continue both *)
      let path = Filename.temp_file "dynfo_e2e" ".snap" in
      let bytes = Client.snapshot client ~session ~path in
      check tb "snapshot non-empty" true (bytes > 0);
      let restored, steps = Client.restore client ~backend:`Bulk ~path () in
      check ti "restored steps" k steps;
      ignore (Client.update client ~session suffix);
      ignore (Client.update client ~session:restored suffix);
      let offline_all = Runner.run offline_prefix suffix in
      check tb "original session final answer" (Runner.query offline_all)
        (Client.query client ~session []);
      check tb "restored session final answer" (Runner.query offline_all)
        (Client.query client ~session:restored []);
      Sys.remove path;
      (* a par-engine session on the shared pool agrees too *)
      let par =
        Client.create client ~backend:`Tuple ~engine:`Par ~program:"reach_u"
          ~size ()
      in
      ignore (Client.update client ~session:par reqs);
      check tb "par session answer" (Runner.query offline_all)
        (Client.query client ~session:par []);
      (* stats and list *)
      let st = Client.stats client ~session in
      check ti "steps counted" 60 st.Client.steps;
      check tb "work counted" true (st.Client.work > 0);
      let sessions = Client.list_sessions client in
      check ti "three live sessions" 3 (List.length sessions);
      check tb "list names programs" true
        (List.for_all (fun (_, p) -> p = "reach_u") sessions);
      (* protocol-level errors: unknown session, unknown program, bad
         op, corrupt snapshot restore *)
      (match Client.query client ~session:"nope" [] with
      | _ -> Alcotest.fail "unknown session must fail"
      | exception Failure _ -> ());
      (match Client.create client ~program:"nope" ~size:4 () with
      | _ -> Alcotest.fail "unknown program must fail"
      | exception Failure _ -> ());
      let bad = Client.raw_call client "{\"id\":99,\"op\":\"nope\"}" in
      check tb "unknown op answered with ok:false" true
        (match Wire.resp_of_line bad with
        | Ok r -> (not r.Wire.r_ok) && r.Wire.r_id = 99
        | Error _ -> false);
      let corrupt_path = Filename.temp_file "dynfo_corrupt" ".snap" in
      let oc = open_out_bin corrupt_path in
      output_string oc "DYNFOSNAP1 this is not a snapshot";
      close_out oc;
      (match Client.restore client ~path:corrupt_path () with
      | _ -> Alcotest.fail "corrupt snapshot must be rejected"
      | exception Failure msg ->
          check tb "corruption named" true
            (String.length msg > 0));
      Sys.remove corrupt_path;
      Client.destroy client ~session:par;
      check ti "two sessions after destroy" 2
        (List.length (Client.list_sessions client)))

(* Every formula a served delta tick evaluates — rules, temporaries,
   fallbacks, the query — has a cached tester: once a pass over the
   workload has warmed them, the same pass again compiles nothing
   (the daemon's process-wide [compiles] stat stays flat). Parity's
   0-ary [b] rule falls back to a full recompute on every step. *)
let test_daemon_warm_compiles () =
  Dynfo_analysis.Advisor.install ();
  with_server (fun client ->
      let size = 64 in
      let reqs =
        (Registry.find "parity").workload (Random.State.make [| 7 |]) ~size
          ~length:40
      in
      let session =
        Client.create client ~backend:`Delta ~program:"parity" ~size ()
      in
      let pass () =
        List.iter
          (fun r ->
            ignore (Client.update client ~session [ r ]);
            ignore (Client.query client ~session []))
          reqs
      in
      pass ();
      let before = (Client.stats client ~session).Client.compiles in
      check tb "compiles exported" true (before > 0);
      pass ();
      check ti "a warm served pass compiles nothing" before
        (Client.stats client ~session).Client.compiles)

(* [serve] returns only after every live connection has ended: an idle
   client that never hangs up is shut out (its next read sees end of
   input) and its thread joined, instead of being left running. *)
let test_daemon_stop_ends_connections () =
  let server_done = Atomic.make false in
  let server_thread =
    Thread.create
      (fun () ->
        ignore
          (Server.run
             {
               Server.addr = `Unix (test_sock ());
               lanes = Some 1;
               find_program = (fun _ -> None);
             });
        Atomic.set server_done true)
      ()
  in
  let stopper = connect 100 in
  let idle = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect idle (Unix.ADDR_UNIX (test_sock ()));
  let hello = Bytes.of_string "{\"id\":1,\"op\":\"hello\"}\n" in
  ignore (Unix.write idle hello 0 (Bytes.length hello));
  let buf = Bytes.create 256 in
  check tb "the idle connection is served" true (Unix.read idle buf 0 256 > 0);
  run_watched ~seconds:10.
    [
      (fun () ->
        Client.shutdown stopper;
        Client.close stopper;
        Thread.join server_thread);
    ];
  check tb "serve returned" true (Atomic.get server_done);
  let readable, _, _ = Unix.select [ idle ] [] [] 5. in
  check tb "the idle connection was ended" true
    (readable <> [] && Unix.read idle buf 0 256 = 0);
  Unix.close idle

let test_loadgen () =
  Dynfo_analysis.Advisor.install ();
  with_server (fun client ->
      let e = Registry.find "parity" in
      let size = 16 in
      let rng = Random.State.make [| 2 |] in
      let reqs = e.workload rng ~size ~length:64 in
      let session = Client.create client ~program:"parity" ~size () in
      let r = Loadgen.drive client ~session ~batch:16 reqs in
      check ti "all updates applied" (List.length reqs) r.Loadgen.lg_updates;
      check ti "ceil-division calls" 4 r.Loadgen.lg_calls;
      check tb "throughput nonzero" true (r.Loadgen.lg_ups > 0.);
      check tb "latency ordered" true
        (r.Loadgen.lg_p50_us <= r.Loadgen.lg_p99_us
        && r.Loadgen.lg_p99_us <= r.Loadgen.lg_max_us);
      let offline = Runner.query (Runner.run (Runner.init e.program ~size) reqs) in
      check tb "served == offline" offline r.Loadgen.lg_final)

(* fifo and commute sessions answer identically over the wire, and the
   stats response surfaces the coalescing and delta counters *)
let test_daemon_coalesce_modes () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  with_server (fun client ->
      let e = Registry.find "parity" in
      let size = 16 in
      let rng = Random.State.make [| 8 |] in
      let base = e.workload rng ~size ~length:48 in
      (* every request submitted twice back to back: the retrying
         at-least-once submitter E24 models *)
      let reqs = List.concat_map (fun r -> [ r; r ]) base in
      let offline =
        Runner.query (Runner.run (Runner.init e.program ~size) reqs)
      in
      let run coalesce =
        let session =
          Client.create client ~coalesce ~program:"parity" ~size ()
        in
        let r = Loadgen.drive client ~session ~batch:16 reqs in
        let st = Client.stats client ~session in
        Client.destroy client ~session;
        check tb "served answer == offline replay" offline r.Loadgen.lg_final;
        check ti "steps acknowledge every submitted request"
          (List.length reqs) st.Client.steps;
        st
      in
      let fifo = run `Fifo in
      check ti "fifo exploits no law" 0 (fifo.Client.deduped + fifo.Client.elided);
      let com = run `Commute in
      check tb "commute dedupes the injected duplicates" true
        (com.Client.deduped >= 48);
      check tb "stats surface planner groups" true (com.Client.groups > 0);
      check tb "stats surface delta counters" true
        (com.Client.delta_fast_hits >= 0
        && com.Client.delta_memo_hits >= 0
        && com.Client.delta_memo_misses >= 0
        && com.Client.delta_mask_builds >= 0))

(* A cold create — a program copy no analysis has seen, seconds of
   Commute and Defchange model checking — must not stall calls to a live
   session of another program: neither the server's session table nor
   the analysis caches may hold a process-wide lock across it. *)
let test_daemon_cold_create () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  Dynfo_analysis.Defchange.install ();
  let cold = { (Registry.find "matching").program with Program.name = "matching-cold" } in
  with_server ~extra:[ ("matching-cold", cold) ] (fun client ->
      let size = 64 in
      let session = Client.create client ~program:"parity" ~size () in
      let creating = Atomic.make true and create_s = ref 0. in
      let creator =
        Thread.create
          (fun () ->
            let other = connect 0 in
            let t0 = Unix.gettimeofday () in
            ignore (Client.create other ~program:"matching-cold" ~size:8 ());
            create_s := Unix.gettimeofday () -. t0;
            Client.close other;
            Atomic.set creating false)
          ()
      in
      let rng = Random.State.make [| 13 |] in
      let members = Array.make size false in
      let worst = ref 0. and during = ref 0 in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let x = f () in
        worst := Float.max !worst (Unix.gettimeofday () -. t0);
        x
      in
      while Atomic.get creating do
        let a = Random.State.int rng size in
        let r = if members.(a) then Request.del "M" [ a ] else Request.ins "M" [ a ] in
        ignore (timed (fun () -> Client.update client ~session [ r ]));
        members.(a) <- not members.(a);
        let odd = Array.fold_left (fun n b -> if b then n + 1 else n) 0 members mod 2 = 1 in
        check tb "live answer == offline replay" odd
          (timed (fun () -> Client.query client ~session []));
        incr during
      done;
      Thread.join creator;
      Printf.printf "cold create %.3f s; %d live rounds, worst call %.3f s\n"
        !create_s !during !worst;
      check tb "live calls overlapped the cold create" true (!during > 0);
      if !worst >= 0.5 then
        Alcotest.failf "a live call waited %.3f s during a %.3f s cold create"
          !worst !create_s)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest json_roundtrip;
          QCheck_alcotest.to_alcotest json_parse_law;
          Alcotest.test_case "hand-picked cases" `Quick test_json_cases;
        ] );
      ("wire", [ Alcotest.test_case "round trips" `Quick test_wire_roundtrip ]);
      ( "snapshot",
        [
          Alcotest.test_case "encode/decode/save/load" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick
            test_snapshot_corruption;
          Alcotest.test_case "restore continues in lockstep" `Slow
            test_snapshot_lockstep;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest batch_equals_singletons;
          Alcotest.test_case "atomic rejection" `Quick test_batch_atomicity;
          Alcotest.test_case "par engine batch" `Quick test_par_batch;
        ] );
      ( "session",
        [
          Alcotest.test_case "concurrent submitters coalesce safely" `Quick
            test_session_concurrent;
          Alcotest.test_case "queue-drain dedupe batch law" `Quick
            test_session_dedupe;
          Alcotest.test_case "mixed update/query traffic" `Quick
            test_session_mixed_traffic;
          Alcotest.test_case "stress under a watchdog" `Quick
            test_session_stress;
          Alcotest.test_case "close during a drain" `Quick
            test_session_close_drain;
          Alcotest.test_case "held leader coalesces waiters" `Quick
            test_session_held_leader;
          Alcotest.test_case "a raising drain wedges nothing" `Quick
            test_session_raising_drain;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end over a Unix socket" `Slow
            test_daemon_end_to_end;
          Alcotest.test_case "warm served ticks compile nothing" `Quick
            test_daemon_warm_compiles;
          Alcotest.test_case "stop ends live connections" `Quick
            test_daemon_stop_ends_connections;
          Alcotest.test_case "load generator" `Slow test_loadgen;
          Alcotest.test_case "fifo vs commute coalescing" `Slow
            test_daemon_coalesce_modes;
          Alcotest.test_case "cold create stalls no session" `Slow
            test_daemon_cold_create;
        ] );
    ]

open Dynfo_logic

type t =
  | Ins of string * Tuple.t
  | Del of string * Tuple.t
  | Set of string * int
  | Ins_set of string * Tuple.t list
  | Del_set of string * Tuple.t list
  | Ins_def of string * string list * Formula.t
  | Del_def of string * string list * Formula.t

let ins name xs = Ins (name, Array.of_list xs)
let del name xs = Del (name, Array.of_list xs)
let set name a = Set (name, a)
let ins_set name tups = Ins_set (name, List.map Array.of_list tups)
let del_set name tups = Del_set (name, List.map Array.of_list tups)
let ins_def name vars f = Ins_def (name, vars, f)
let del_def name vars f = Del_def (name, vars, f)

let is_batch = function
  | Ins _ | Del _ | Set _ -> false
  | Ins_set _ | Del_set _ | Ins_def _ | Del_def _ -> true

(* A change formula may only mention symbols the vocabulary declares:
   relation atoms with the declared arity, and free identifiers that are
   either the change's own parameters or constant symbols. Anything else
   would blow up at expansion time inside a serving worker, so [valid]
   walks the formula up front. *)
let formula_fits vocab ~vars f =
  let ok = ref true in
  let rec go bound = function
    | Formula.True | Formula.False -> ()
    | Formula.Rel (r, ts) ->
        if Vocab.arity_opt vocab r <> Some (List.length ts) then ok := false;
        List.iter (term bound) ts
    | Formula.Eq (a, b)
    | Formula.Le (a, b)
    | Formula.Lt (a, b)
    | Formula.Bit (a, b) ->
        term bound a;
        term bound b
    | Formula.Not f -> go bound f
    | Formula.And (a, b)
    | Formula.Or (a, b)
    | Formula.Implies (a, b)
    | Formula.Iff (a, b) ->
        go bound a;
        go bound b
    | Formula.Exists (xs, f) | Formula.Forall (xs, f) ->
        go (List.rev_append xs bound) f
  and term bound = function
    | Formula.Var x ->
        if
          not
            (List.mem x bound || List.mem x vars || Vocab.mem_const vocab x)
        then ok := false
    | Formula.Num _ | Formula.Min | Formula.Max -> ()
  in
  go [] f;
  !ok

let distinct vars =
  List.length (List.sort_uniq String.compare vars) = List.length vars

let valid vocab ~size = function
  | Ins (name, tup) | Del (name, tup) ->
      Vocab.arity_opt vocab name = Some (Array.length tup)
      && Tuple.in_universe ~size tup
  | Set (name, a) -> Vocab.mem_const vocab name && 0 <= a && a < size
  | Ins_set (name, tups) | Del_set (name, tups) -> (
      match Vocab.arity_opt vocab name with
      | None -> false
      | Some k ->
          List.for_all
            (fun t -> Array.length t = k && Tuple.in_universe ~size t)
            tups)
  | Ins_def (name, vars, f) | Del_def (name, vars, f) ->
      Vocab.arity_opt vocab name = Some (List.length vars)
      && distinct vars
      && List.for_all (fun v -> not (Vocab.mem_const vocab v)) vars
      && formula_fits vocab ~vars f

(* Batches: an explicit list of requests applied as one evaluation tick
   (Runner.step_batch). Request texts never contain ';' (formulas have no
   ';' token), so the textual form is the ';'-joined singleton forms. *)

let valid_batch vocab ~size reqs = List.for_all (valid vocab ~size) reqs

(* The five tuple forms are printed straight into a buffer — the wire
   client prints one per update request, and [Format.asprintf] costs
   several times the request itself. The def forms print their formula
   through [Format]. test_core holds the output byte-identical to the
   [Format] printer this replaced. *)
let add_tuple buf t =
  Buffer.add_char buf '(';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    t;
  Buffer.add_char buf ')'

let pp_def ppf kind name vars f =
  Format.fprintf ppf "%s %s (%s) : %a" kind name (String.concat ", " vars)
    Formula.pp f

let rec to_string r =
  let buf = Buffer.create 32 in
  let head kind name =
    Buffer.add_string buf kind;
    Buffer.add_char buf ' ';
    Buffer.add_string buf name
  in
  match r with
  | Ins_def _ | Del_def _ -> Format.asprintf "%a" pp r
  | Ins (name, tup) | Del (name, tup) ->
      head (match r with Ins _ -> "ins" | _ -> "del") name;
      Buffer.add_char buf ' ';
      add_tuple buf tup;
      Buffer.contents buf
  | Set (name, a) ->
      head "set" name;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int a);
      Buffer.contents buf
  | Ins_set (name, tups) | Del_set (name, tups) ->
      head (match r with Ins_set _ -> "ins*" | _ -> "del*") name;
      List.iter
        (fun t ->
          Buffer.add_char buf ' ';
          add_tuple buf t)
        tups;
      Buffer.contents buf

and pp ppf = function
  | Ins_def (name, vars, f) -> pp_def ppf "insdef" name vars f
  | Del_def (name, vars, f) -> pp_def ppf "deldef" name vars f
  | r -> Format.pp_print_string ppf (to_string r)

let malformed line = failwith (Printf.sprintf "Request.parse: malformed %S" line)

(* "insdef E (x, y) : phi" — head before the first ':', formula after. *)
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

(* --- the single-pass scanner ---------------------------------------------

   The request grammar as the line-oriented surfaces have always read it:
   the line is trimmed, split into space-separated tokens, and the first
   token picks the form —
   - [set NAME INT]: exactly three tokens;
   - [ins NAME TUPLE] / [del NAME TUPLE]: the tokens after NAME are
     concatenated {e without} spaces into one parenthesised,
     comma-separated tuple (so spaces anywhere inside it are ignored);
   - [ins* NAME TUPLE*] / [del* NAME TUPLE*]: zero or more
     parenthesised tuples, separated by spaces only;
   - [insdef]/[deldef]: a head and a formula (see [parse_def]).
   Components are [int_of_string] literals after trimming. The scanner
   below reads the five tuple forms by index, with no token list and no
   substrings on the common path (plain decimal components). It accepts
   and rejects exactly the strings — and returns exactly the values and
   error messages — of the token-splitting reader it replaced, which
   test_core keeps as its qcheck oracle. *)

let is_ws = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* How the token reader saw a number's text: a [set] argument as is, a
   tuple-list component trimmed, an ins/del component with its spaces
   dropped and then trimmed. *)
type text = Raw | Trimmed | Spaceless

(* the number [s.[lo..hi)]: inline for plain decimal digits (the
   common case), else through [int_of_string_opt] on the text as the
   token reader saw it *)
let component mode s lo hi =
  let rec digits i acc nd =
    if i >= hi then if nd > 0 && nd <= 18 then Some acc else None
    else
      match s.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48) (nd + 1)
      | ' ' when mode = Spaceless -> digits (i + 1) acc nd
      | _ -> None
  in
  match digits lo 0 0 with
  | Some _ as v -> v
  | None -> (
      let text = String.sub s lo (hi - lo) in
      match mode with
      | Raw -> int_of_string_opt text
      | Trimmed -> int_of_string_opt (String.trim text)
      | Spaceless ->
          int_of_string_opt
            (String.trim (String.concat "" (String.split_on_char ' ' text))))

(* the comma-separated components of [s.[lo..hi)]; [None] on a bad one.
   All-whitespace is the empty tuple. *)
let components mode s lo hi =
  let rec blank i = i >= hi || (is_ws s.[i] && blank (i + 1)) in
  if blank lo then Some [||]
  else
    let rec go i start acc =
      if i = hi || s.[i] = ',' then
        match component mode s start i with
        | None -> None
        | Some v ->
            if i = hi then Some (Array.of_list (List.rev (v :: acc)))
            else go (i + 1) (i + 1) (v :: acc)
      else go (i + 1) start acc
    in
    go lo lo []

let parse line =
  let fail () = malformed line in
  let n = String.length line in
  let lo = ref 0 and hi = ref n in
  while !lo < n && is_ws line.[!lo] do incr lo done;
  while !hi > !lo && is_ws line.[!hi - 1] do decr hi done;
  let lo = !lo and hi = !hi in
  (* the token starting at or after [i]: (start, end), end = start when
     there is none *)
  let token i =
    let i = ref i in
    while !i < hi && line.[!i] = ' ' do incr i done;
    let j = ref !i in
    while !j < hi && line.[!j] <> ' ' do incr j done;
    (!i, !j)
  in
  let k0, k1 = token lo in
  let n0, n1 = token k1 in
  if n0 = n1 then fail ();
  let kind = String.sub line k0 (k1 - k0) in
  let name () = String.sub line n0 (n1 - n0) in
  match kind with
  | "set" -> (
      let a0, a1 = token n1 in
      if a0 = a1 || fst (token a1) < hi then fail ();
      match component Raw line a0 a1 with
      | Some a -> Set (name (), a)
      | None -> fail ())
  | "ins" | "del" -> (
      (* the rest, spaces dropped, trimmed: the line's own trim already
         ends it at a non-blank *)
      let t0 = ref n1 in
      while !t0 < hi && is_ws line.[!t0] do incr t0 done;
      let t0 = !t0 in
      if t0 >= hi then fail ();
      if not (t0 < hi - 1 && line.[t0] = '(' && line.[hi - 1] = ')') then
        fail ();
      match components Spaceless line (t0 + 1) (hi - 1) with
      | Some tup -> if kind = "ins" then Ins (name (), tup) else Del (name (), tup)
      | None -> fail ())
  | "ins*" | "del*" ->
      (* tuple-list errors name the trimmed line *)
      let fail () = malformed (String.sub line lo (hi - lo)) in
      let i = ref n1 in
      while !i < hi && is_ws line.[!i] do incr i done;
      let tups = ref [] in
      while !i < hi do
        while !i < hi && line.[!i] = ' ' do incr i done;
        if !i < hi then begin
          if line.[!i] <> '(' then fail ();
          let j = match String.index_from_opt line !i ')' with
            | Some j when j < hi -> j
            | _ -> fail ()
          in
          (match components Trimmed line (!i + 1) j with
          | Some t -> tups := t :: !tups
          | None -> fail ());
          i := j + 1
        end
      done;
      let tups = List.rev !tups in
      if kind = "ins*" then Ins_set (name (), tups) else Del_set (name (), tups)
  | "insdef" | "deldef" ->
      let rest0, _ = token n1 in
      if rest0 >= hi then fail ();
      let words =
        String.sub line n0 (hi - n0)
        |> String.split_on_char ' '
        |> List.filter (fun w -> w <> "")
      in
      parse_def (String.sub line lo (hi - lo)) kind (String.concat " " words)
  | _ -> fail ()

let batch_to_string reqs = String.concat "; " (List.map to_string reqs)

let parse_batch line =
  String.split_on_char ';' line
  |> List.filter_map (fun s ->
         if String.trim s = "" then None else Some (parse s))

(* Expansion happens against the structure at the start of the tick: an
   FO-defined change selects its tuple set in the pre-state, exactly the
   "definable changes" reading (Schwentick-Vortmeier-Zeume) where the
   change formula is evaluated before any of the step's updates land.
   Redundant members are dropped here (inserting a present tuple /
   deleting an absent one), so the expansion is the minimal singleton
   sequence whose fold realises the set change. *)
let expand st req =
  match req with
  | Ins _ | Del _ | Set _ -> [ req ]
  | Ins_set (name, tups) -> List.map (fun t -> Ins (name, t)) tups
  | Del_set (name, tups) -> List.map (fun t -> Del (name, t)) tups
  (* the defined set is enumerated through the bulk evaluator's bitset:
     one compiled word-kernel pass over the formula, then a bit scan of
     the result — instead of one compiled-closure [Eval] test per tuple
     of the space. Codes ascend in {!Tuple.encode}'s row-major order,
     which is exactly lexicographic [Tuple.compare] order, so the
     singleton sequence is unchanged. *)
  | Ins_def (name, vars, f) ->
      let sel = Bulk_eval.bitrel st ~vars f in
      let cur = Structure.rel st name in
      let size = Structure.size st and arity = List.length vars in
      let acc = ref [] in
      Bitrel.iter_codes
        (fun c ->
          let t = Tuple.decode ~size ~arity c in
          if not (Relation.mem cur t) then acc := Ins (name, t) :: !acc)
        sel;
      List.rev !acc
  | Del_def (name, vars, f) ->
      let sel = Bulk_eval.bitrel st ~vars f in
      let cur = Structure.rel st name in
      let size = Structure.size st and arity = List.length vars in
      let acc = ref [] in
      Bitrel.iter_codes
        (fun c ->
          let t = Tuple.decode ~size ~arity c in
          if Relation.mem cur t then acc := Del (name, t) :: !acc)
        sel;
      List.rev !acc

let expand_batch st reqs = List.concat_map (expand st) reqs

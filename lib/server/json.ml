(* Minimal JSON: just enough for the newline-delimited wire protocol
   (Wire) and the bench/CI tooling that reads it. No dependency — the
   build image has no JSON library, and the protocol needs only objects,
   arrays, strings, ints, floats, bools and null. The parser is a plain
   recursive descent over the string by index; printing always escapes control
   characters, so [to_string] output never contains a raw newline — a
   printed value is always a valid single wire line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec print_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then (
        let s = Printf.sprintf "%.12g" f in
        Buffer.add_string buf s;
        (* keep it a JSON number that round-trips as Float *)
        if
          not
            (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s)
        then Buffer.add_string buf ".0")
      else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print_to buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          print_to buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  print_to buf v;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------------- *)

exception Bad of string * int

(* A recursive descent by index: [pos] is the next unread byte, and the
   end of input is a bounds test — no option per character read. Error
   messages carry the offset where the descent stopped. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let at_end () = !pos >= n in
  (* the next byte; only called when not [at_end] *)
  let cur () = String.unsafe_get s !pos in
  let next_is c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let fail msg = raise (Bad (msg, !pos)) in
  let skip_ws () =
    while
      !pos < n
      && match cur () with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c = if next_is c then advance () else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        if at_end () then fail "expected hex digit"
        else
          match cur () with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
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
    (* the run of plain bytes from [!pos]: no quote, backslash or
       control character *)
    let plain_run () =
      let start = !pos in
      while
        !pos < n
        &&
        let c = cur () in
        c <> '"' && c <> '\\' && Char.code c >= 0x20
      do
        advance ()
      done;
      start
    in
    let start = plain_run () in
    if next_is '"' then begin
      (* no escapes: one substring, no buffer *)
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (max 16 (2 * (!pos - start))) in
      Buffer.add_substring buf s start (!pos - start);
      let escape c =
        advance ();
        Buffer.add_char buf c
      in
      let rec go () =
        if at_end () then fail "unterminated string"
        else
          match cur () with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (if at_end () then fail "bad escape"
               else
                 match cur () with
                 | '"' -> escape '"'
                 | '\\' -> escape '\\'
                 | '/' -> escape '/'
                 | 'n' -> escape '\n'
                 | 'r' -> escape '\r'
                 | 't' -> escape '\t'
                 | 'b' -> escape '\b'
                 | 'f' -> escape '\012'
                 | 'u' ->
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
                         else 0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
                       else if cp >= 0xdc00 && cp <= 0xdfff then
                         fail "stray low surrogate"
                       else cp
                     in
                     add_utf8 buf cp
                 | _ -> fail "bad escape");
              go ()
          | c when Char.code c < 0x20 -> fail "raw control char in string"
          | _ ->
              let start = plain_run () in
              Buffer.add_substring buf s start (!pos - start);
              go ()
      in
      go ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if next_is '-' then advance ();
    let digits () =
      let from = !pos in
      while !pos < n && match cur () with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = from then fail "expected digit"
    in
    digits ();
    if next_is '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    if next_is 'e' || next_is 'E' then begin
      is_float := true;
      advance ();
      if next_is '+' || next_is '-' then advance ();
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    if at_end () then fail "unexpected end of input"
    else
      match cur () with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> Str (parse_string ())
      | '[' ->
          advance ();
          skip_ws ();
          if next_is ']' then (
            advance ();
            List [])
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              if next_is ',' then (
                advance ();
                items (v :: acc))
              else if next_is ']' then (
                advance ();
                List.rev (v :: acc))
              else fail "expected , or ]"
            in
            List (items [])
      | '{' ->
          advance ();
          skip_ws ();
          if next_is '}' then (
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
              if next_is ',' then (
                advance ();
                fields (kv :: acc))
              else if next_is '}' then (
                advance ();
                List.rev (kv :: acc))
              else fail "expected , or }"
            in
            Obj (fields [])
      | '-' | '0' .. '9' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected character %C" c)
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

(* --- accessors ------------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

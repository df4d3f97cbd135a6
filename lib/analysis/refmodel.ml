open Dynfo_logic
open Dynfo

(* --- coding ------------------------------------------------------------------ *)

let max_bits = 40

let pow b e =
  let r = ref 1 in
  for _ = 1 to e do
    r := !r * b
  done;
  !r

(* Little-endian base-[size] tuple indices: component 0 is the least
   significant digit. *)
let decode_tuple ~size ~arity idx =
  let t = Array.make arity 0 in
  let rest = ref idx in
  for i = 0 to arity - 1 do
    t.(i) <- !rest mod size;
    rest := !rest / size
  done;
  t

let tuple_index ~size (t : Tuple.t) =
  let idx = ref 0 in
  for i = Array.length t - 1 downto 0 do
    idx := (!idx * size) + t.(i)
  done;
  !idx

type coder = {
  c_size : int;
  c_vocab : Vocab.t;
  c_rels : (string * int * int) array;  (* name, arity, first bit *)
  c_consts : string array;  (* base-[c_size] digits above the relation bits *)
  c_rel_bits : int;
}

let coder_of vocab ~size =
  let offset = ref 0 in
  let rels =
    Array.of_list
      (List.map
         (fun (s : Vocab.sym) ->
           let off = !offset in
           offset := off + pow size s.arity;
           (s.name, s.arity, off))
         (Vocab.relations vocab))
  in
  let consts = Array.of_list (Vocab.constants vocab) in
  let rel_bits = !offset in
  (* 2^rel_bits * size^consts must stay within 2^max_bits *)
  let fits =
    rel_bits <= max_bits
    && Array.fold_left
         (fun room _ -> if room >= size then room / size else 0)
         (1 lsl (max_bits - rel_bits))
         consts
       >= 1
  in
  if fits then
    Some
      {
        c_size = size;
        c_vocab = vocab;
        c_rels = rels;
        c_consts = consts;
        c_rel_bits = rel_bits;
      }
  else None

(* The structure exposes exactly the coder's symbols: same counts, and
   every coder symbol present with its arity (names are unique). *)
let exact_vocab c st =
  let v = Structure.vocab st in
  v == c.c_vocab
  || List.length (Vocab.relations v) = Array.length c.c_rels
     && List.length (Vocab.constants v) = Array.length c.c_consts
     && Array.for_all
          (fun (name, arity, _) -> Vocab.arity_opt v name = Some arity)
          c.c_rels
     && Array.for_all (Vocab.mem_const v) c.c_consts

let encode c st =
  if Structure.size st <> c.c_size || not (exact_vocab c st) then None
  else begin
    let code = ref 0 in
    Array.iter
      (fun (name, _, off) ->
        Relation.iter
          (fun t ->
            code := !code lor (1 lsl (off + tuple_index ~size:c.c_size t)))
          (Structure.rel st name))
      c.c_rels;
    let digit = ref (1 lsl c.c_rel_bits) in
    Array.iter
      (fun name ->
        code := !code + (Structure.const st name * !digit);
        digit := !digit * c.c_size)
      c.c_consts;
    Some !code
  end

let decode c code =
  let size = c.c_size in
  let st =
    Array.fold_left
      (fun st (name, arity, off) ->
        let tuples = ref [] in
        for i = pow size arity - 1 downto 0 do
          if (code lsr (off + i)) land 1 = 1 then
            tuples := decode_tuple ~size ~arity i :: !tuples
        done;
        Structure.with_rel st name (Relation.of_list ~arity !tuples))
      (Structure.create ~size c.c_vocab)
      c.c_rels
  in
  let rest = ref (code lsr c.c_rel_bits) in
  Array.fold_left
    (fun st name ->
      let v = !rest mod size in
      rest := !rest / size;
      Structure.with_const st name v)
    st c.c_consts

(* Singleton requests over the coder's symbols, in range; anything else
   (set requests, unknown symbols, out-of-universe arguments) has no
   code and steps directly, so validation errors surface unchanged. *)
let request_code c req =
  let nsyms = Array.length c.c_rels + Array.length c.c_consts in
  let rel_code kind name t =
    let rec find i =
      if i = Array.length c.c_rels then None
      else
        let n, arity, _ = c.c_rels.(i) in
        if n = name then
          if Array.length t = arity && Tuple.in_universe ~size:c.c_size t then
            Some ((((tuple_index ~size:c.c_size t * nsyms) + i) * 3) + kind)
          else None
        else find (i + 1)
    in
    find 0
  in
  match req with
  | Request.Ins (name, t) -> rel_code 0 name t
  | Request.Del (name, t) -> rel_code 1 name t
  | Request.Set (name, v) ->
      let rec find i =
        if i = Array.length c.c_consts then None
        else if c.c_consts.(i) = name then
          if v >= 0 && v < c.c_size then
            Some ((((v * nsyms) + Array.length c.c_rels + i) * 3) + 2)
          else None
        else find (i + 1)
      in
      find 0
  | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
  | Request.Del_def _ ->
      None

(* --- the transition table ---------------------------------------------------- *)

type t = {
  program : Program.t;
  coders : coder option array;  (* indexed by universe size *)
  mask : int;
  k_state : int array;  (* -1: empty slot *)
  k_req : int array;  (* request code and size *)
  succ : int array;
}

let create ?(slots = 4096) ~max_size (p : Program.t) =
  let vocab = Program.vocab p in
  let n = ref 1 in
  while !n < slots do
    n := 2 * !n
  done;
  {
    program = p;
    coders =
      Array.init (max 0 max_size + 1) (fun size ->
          if size = 0 then None else coder_of vocab ~size);
    mask = !n - 1;
    k_state = Array.make !n (-1);
    k_req = Array.make !n 0;
    succ = Array.make !n 0;
  }

type state = Coded of coder * int | Plain of Structure.t

let start t st =
  let size = Structure.size st in
  match if size < Array.length t.coders then t.coders.(size) else None with
  | None -> Plain st
  | Some c -> (
      match encode c st with Some code -> Coded (c, code) | None -> Plain st)

let coded = function Coded _ -> true | Plain _ -> false

let structure = function Coded (c, code) -> decode c code | Plain st -> st

(* the reference itself: one tuple-backend step from a fresh runner *)
let direct p st req =
  Runner.structure (Runner.step ~backend:`Tuple (Runner.restore p st) req)

let slot t code rk =
  let h = (code * 0x2545F4914F6CDD1D) lxor (rk * 0x1E3779B97F4A7C15) in
  (h lxor (h lsr 31)) land t.mask

let step t s req =
  match s with
  | Plain st -> start t (direct t.program st req)
  | Coded (c, code) -> (
      match request_code c req with
      | None -> start t (direct t.program (decode c code) req)
      | Some rc -> (
          let rk = (rc * Array.length t.coders) + c.c_size in
          let i = slot t code rk in
          if t.k_state.(i) = code && t.k_req.(i) = rk then Coded (c, t.succ.(i))
          else
            let st' = direct t.program (decode c code) req in
            match encode c st' with
            | Some code' ->
                t.k_state.(i) <- code;
                t.k_req.(i) <- rk;
                t.succ.(i) <- code';
                Coded (c, code')
            | None -> Plain st'))

let fold t s reqs = List.fold_left (step t) s reqs

let equal a b =
  match (a, b) with
  | Coded (c, x), Coded (c', y) when c == c' -> x = y
  | _ -> Structure.equal (structure a) (structure b)

let matches s st =
  match s with
  | Coded (c, code) -> (
      match encode c st with
      | Some code' -> code = code'
      | None -> Structure.equal (decode c code) st)
  | Plain st' -> Structure.equal st' st

(* --- reachable states ------------------------------------------------------- *)

let workload_spec ?p_ins ?p_del (p : Program.t) =
  let rels =
    List.map
      (fun (s : Vocab.sym) -> (s.name, s.arity))
      (Vocab.relations p.input_vocab)
  in
  Workload.spec ?p_ins ?p_del ~consts:(Vocab.constants p.input_vocab) rels

(* Every state along each run, not a few sampled prefixes: a program
   whose auxiliaries only settle at some points of a run (pad_reach_a's
   fixpoint iterate, which one request advances and the next may
   restart) must be judged mid-run too, where skipping an update block
   is observable. Two run families: balanced inserts and deletes, which
   keep structures sparse, and insert-only growth, which reaches the
   dense structures (several arcs out of one vertex, long paths) that
   the balanced runs almost never build. Growth gets six seeds: states
   caught mid-iterate are rare even there (5 of pad_reach_a's ~500
   distinct states at n <= 4), and three seeds happen to miss them all.
   Runs revisit states a lot (redundant requests, small universes), so
   each distinct structure is kept once, at its first visit. *)
let reachable_states ~max_size (p : Program.t) =
  let balanced = (workload_spec p, [ 1; 2; 3 ]) in
  let growing = (workload_spec ~p_ins:1.0 ~p_del:0.0 p, [ 1; 2; 3; 4; 5; 6 ]) in
  let runs = [ balanced; growing ] in
  List.concat_map
    (fun size ->
      let visits =
        List.concat_map
          (fun (spec, seeds) ->
            List.concat_map
              (fun seed ->
                let reqs =
                  Workload.generate
                    (Random.State.make [| 0xBEA7; size; seed |])
                    ~size ~length:32 spec
                in
                let s0 = Runner.init p ~size in
                snd
                  (List.fold_left
                     (fun (s, acc) req ->
                       let s = Runner.step s req in
                       (s, s :: acc))
                     (s0, [ s0 ])
                     reqs))
              seeds)
          runs
      in
      let seen = ref [] in
      List.filter_map
        (fun s ->
          let st = Runner.structure s in
          if List.exists (Structure.equal st) !seen then None
          else begin
            seen := st :: !seen;
            Some (size, s)
          end)
        visits)
    (List.init max_size (fun i -> i + 1))

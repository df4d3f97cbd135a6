exception Unbound_variable of string
exception Unknown_relation of string
exception Arity_error of string

(* The work counter under parallelism: each domain owns a private counter
   (domain-local storage), registered in a global list the first time the
   domain evaluates anything. [work] sums all registered counters, so the
   total is exact no matter which domains performed the evaluations;
   [reset_work] zeroes them all. Closures capture the counter of the
   domain that *compiled* them, so a compiled formula must be evaluated
   by its compiling domain — which is how {!Dynfo_engine.Par_eval} uses
   it (each worker compiles its own copy). *)
let all_counters : int ref list Atomic.t = Atomic.make []

let counter_key =
  Domain.DLS.new_key (fun () ->
      let r = ref 0 in
      let rec register () =
        let l = Atomic.get all_counters in
        if not (Atomic.compare_and_set all_counters l (r :: l)) then
          register ()
      in
      register ();
      r)

let my_counter () = Domain.DLS.get counter_key
let work () = List.fold_left (fun acc r -> acc + !r) 0 (Atomic.get all_counters)
let reset_work () = List.iter (fun r -> r := 0) (Atomic.get all_counters)

let with_work f =
  let before = work () in
  let x = f () in
  (x, work () - before)

let add_work k =
  let c = my_counter () in
  c := !c + k

(* Process-wide count of formula compilations (every [holds], [define],
   [tester] and [compile_tester] compiles once) — how the tests and the
   daemon's [stats] see that a warm delta tick reuses its rebound
   testers instead of compiling. *)
let compiles_c = Atomic.make 0
let compiles () = Atomic.get compiles_c

(* Symbol resolution for the compiler. Resolving through ref cells (one
   per atom occurrence) costs one extra load per test but lets
   {!compile_tester} repoint a compiled closure at a later step's
   structure ({!rebind}) instead of recompiling — relations and
   constants are the only step-varying inputs; the universe size is
   fixed for the life of a run. *)
type bound = {
  b_size : int;
  b_rel : string -> int -> Relation.t ref;
      (* name, argument count; raises [Unknown_relation] / [Arity_error] *)
  b_const : string -> int ref;  (* raises [Unbound_variable] *)
}

let unknown_relation st name =
  (* same message shape as {!Vocab.Unknown_symbol} *)
  Unknown_relation
    (Printf.sprintf "unknown relation symbol %S in vocabulary %s" name
       (Vocab.to_string (Structure.vocab st)))

(* [st]'s relation [name], checked against an atom's argument count *)
let resolve_rel st name argc =
  match Structure.rel st name with
  | r ->
      if Relation.arity r <> argc then
        raise
          (Arity_error
             (Printf.sprintf "%s expects %d arguments, got %d" name
                (Relation.arity r) argc));
      r
  | exception Invalid_argument _ -> raise (unknown_relation st name)

let resolve_const st x =
  match Structure.const st x with
  | c -> c
  | exception Invalid_argument _ -> raise (Unbound_variable x)

let bound_of_structure st =
  {
    b_size = Structure.size st;
    b_rel = (fun name argc -> ref (resolve_rel st name argc));
    b_const = (fun x -> ref (resolve_const st x));
  }

(* Compile [f] to a closure over a slot array. [env] maps bound variable
   names to slots; [next] is the next free slot. Compilation resolves
   relation symbols through [b] once. *)
let compile_bound b env next f =
  Atomic.incr compiles_c;
  let n = b.b_size in
  let work_counter = my_counter () in
  let term env (t : Formula.term) : int array -> int =
    match t with
    | Formula.Var x -> (
        match List.assoc_opt x env with
        | Some slot -> fun a -> a.(slot)
        | None ->
            let cref = b.b_const x in
            fun _ -> !cref)
    | Formula.Num i -> fun _ -> i
    | Formula.Min -> fun _ -> 0
    | Formula.Max -> fun _ -> n - 1
  in
  let rec go env (f : Formula.t) : int array -> bool =
    match f with
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Rel (name, ts) ->
        let arity = List.length ts in
        let rref = b.b_rel name arity in
        let getters = Array.of_list (List.map (term env) ts) in
        let buf = Array.make arity 0 in
        fun a ->
          incr work_counter;
          for i = 0 to arity - 1 do
            buf.(i) <- getters.(i) a
          done;
          (* arity was checked at compile time, [buf] has the right
             length by construction *)
          Relation.mem_unchecked !rref buf
    | Eq (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work_counter;
          gx a = gy a
    | Le (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work_counter;
          gx a <= gy a
    | Lt (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work_counter;
          gx a < gy a
    | Bit (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work_counter;
          let vx = gx a and vy = gy a in
          vy < Sys.int_size && (vx lsr vy) land 1 = 1
    | Not g ->
        let cg = go env g in
        fun a -> not (cg a)
    | And (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> cg a && ch a
    | Or (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> cg a || ch a
    | Implies (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> (not (cg a)) || ch a
    | Iff (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> cg a = ch a
    | Exists (vs, g) -> quant ~univ:false env vs g
    | Forall (vs, g) -> quant ~univ:true env vs g
  and quant ~univ env vs g =
    let slots =
      List.map
        (fun x ->
          let s = !next in
          incr next;
          (x, s))
        vs
    in
    let body = go (slots @ env) g in
    let slot_arr = Array.of_list (List.map snd slots) in
    let k = Array.length slot_arr in
    if univ then
      fun a ->
        let rec loop i =
          if i = k then body a
          else
            let s = slot_arr.(i) in
            let rec try_ v =
              v >= n
              || (a.(s) <- v;
                  loop (i + 1) && try_ (v + 1))
            in
            try_ 0
        in
        loop 0
    else
      fun a ->
        let rec loop i =
          if i = k then body a
          else
            let s = slot_arr.(i) in
            let rec try_ v =
              v < n
              && ((a.(s) <- v;
                   loop (i + 1))
                 || try_ (v + 1))
            in
            try_ 0
        in
        loop 0
  in
  go env f

(* Compile [f] with the tuple variables [vars] in slots [0, k) and the
   environment after them; returns the closure, its slot array (the
   environment values already loaded) and the environment's slots. *)
let compile_slots b ~vars env f =
  let next = ref 0 in
  let slot x =
    let s = !next in
    incr next;
    (x, s)
  in
  let var_slots = List.map slot vars in
  let env_slots = List.map (fun (x, _) -> slot x) env in
  let fn = compile_bound b (var_slots @ env_slots) next f in
  let a = Array.make (max 1 !next) 0 in
  List.iter2 (fun (_, s) (_, v) -> a.(s) <- v) env_slots env;
  (fn, a, env_slots)

let holds st ?(env = []) f =
  let fn, a, _ = compile_slots (bound_of_structure st) ~vars:[] env f in
  fn a

(* The one enumeration loop behind {!define} and {!define_compiled}:
   every tuple of the [n^arity] space is written into slots [0, arity)
   of [a] and tested. Accepted tuples are collected and turned into a
   relation once at the end — one set build instead of a persistent-set
   rebuild per tuple — and each hit is a single [Array.sub] blit of the
   variable prefix of the slot array rather than an [Array.init]
   closure. *)
let enumerate ~n ~arity a fn =
  let hits = ref [] in
  let rec enum i =
    if i = arity then begin
      if fn a then hits := Array.sub a 0 arity :: !hits
    end
    else
      for v = 0 to n - 1 do
        a.(i) <- v;
        enum (i + 1)
      done
  in
  enum 0;
  Relation.of_list ~arity !hits

let define st ~vars ?(env = []) f =
  let fn, a, _ = compile_slots (bound_of_structure st) ~vars env f in
  enumerate ~n:(Structure.size st) ~arity:(List.length vars) a fn

let tester st ~vars ?(env = []) f =
  let arity = List.length vars in
  let fn, a, _ = compile_slots (bound_of_structure st) ~vars env f in
  fun tup ->
    if Array.length tup <> arity then
      invalid_arg "Eval.tester: tuple arity mismatch";
    Array.blit tup 0 a 0 arity;
    fn a

(* --- rebindable testers --------------------------------------------------- *)

(* A symbol the compiled closure reads through a ref cell. Kept in
   order of first occurrence in the formula: a fresh compilation raises
   at the first occurrence of the first symbol that fails to resolve, so
   {!rebind} checking them in this order raises the same error. *)
type sym =
  | Sym_rel of string * int * Relation.t ref  (* name, argument count *)
  | Sym_const of string * int ref

type compiled = {
  c_size : int;
  c_arity : int;
  c_env_names : string list;  (* order-sensitive: slots follow the vars *)
  c_syms : sym array;
  c_env_slots : int array;
  c_arr : int array;
  c_fn : int array -> bool;
}

let compile_tester st ~vars ?(env = []) f =
  let rels = Hashtbl.create 8 in
  let consts = Hashtbl.create 4 in
  let syms = ref [] in
  (* intern: one shared ref per symbol, so a rebind repoints every
     occurrence at once *)
  let b =
    {
      b_size = Structure.size st;
      b_rel =
        (fun name argc ->
          match Hashtbl.find_opt rels name with
          | Some r ->
              (* same check a fresh compile makes at every occurrence *)
              ignore (resolve_rel st name argc);
              r
          | None ->
              let r = ref (resolve_rel st name argc) in
              Hashtbl.add rels name r;
              syms := Sym_rel (name, argc, r) :: !syms;
              r);
      b_const =
        (fun x ->
          match Hashtbl.find_opt consts x with
          | Some r -> r
          | None ->
              let r = ref (resolve_const st x) in
              Hashtbl.add consts x r;
              syms := Sym_const (x, r) :: !syms;
              r);
    }
  in
  let fn, a, env_slots = compile_slots b ~vars env f in
  {
    c_size = b.b_size;
    c_arity = List.length vars;
    c_env_names = List.map fst env;
    c_syms = Array.of_list (List.rev !syms);
    c_env_slots = Array.of_list (List.map snd env_slots);
    c_arr = a;
    c_fn = fn;
  }

let rec same_names env names =
  match (env, names) with
  | [], [] -> true
  | (x, _) :: env, y :: names -> String.equal x y && same_names env names
  | _ -> false

let rebind c st ~env =
  if Structure.size st <> c.c_size then
    invalid_arg "Eval.rebind: universe size differs from compile time";
  if not (same_names env c.c_env_names) then
    invalid_arg "Eval.rebind: environment names differ from compile time";
  Array.iter
    (function
      | Sym_rel (name, argc, r) -> r := resolve_rel st name argc
      | Sym_const (x, r) -> r := resolve_const st x)
    c.c_syms;
  List.iteri (fun i (_, v) -> c.c_arr.(c.c_env_slots.(i)) <- v) env

let test_compiled c tup =
  if Array.length tup <> c.c_arity then
    invalid_arg "Eval.test_compiled: tuple arity mismatch";
  Array.blit tup 0 c.c_arr 0 c.c_arity;
  c.c_fn c.c_arr

let define_compiled c = enumerate ~n:c.c_size ~arity:c.c_arity c.c_arr c.c_fn

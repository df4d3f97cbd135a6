open Dynfo_logic
open Dynfo

(* Definable-change analysis: which whole-batch evaluation strategies
   are safe per (program, update op)? The serving layer coalesces
   batches into one evaluation tick; this module licenses the two
   exploitations [Runner.step_batch] knows:

   - [Absorb]: apply the input changes and skip the update block —
     default maintenance for the whole group;
   - [Stream]: fold the members under one [Delta_eval] batch scope so
     the group accumulates a single dirty mask (one clear, one unioned
     frontier) instead of one per member.

   Following the PR-4/PR-8 discipline, static evidence only nominates:
   (1) syntactic — no update block, or no rule reads the relation the
   batch writes, so members cannot observe each other's effects;
   (2) frame-based — every rule carries a slab frame from its Support
   plan, so the group's frontiers union into one mask.
   Layer (3), the bounded model checker, is the only thing that grants
   a verdict: it runs the {e actual exploited code paths}
   ([Runner.absorb_group], [Runner.step_batch ~defchange]) against the
   singleton-sequence fold over batches of size 1..3, exhaustively
   while the budget lasts and with seeded sampling beyond, plus the
   FO-definable set-change forms ([ins*]/[insdef]) against their
   explicit expansion. Anything unverified is [Unknown], which every
   consumer treats as [Fold] — the unchanged singleton fold. *)

(* --- operations (shared with Commute) -------------------------------------- *)

let op_name = Commute.op_name
let ops_of = Commute.ops_of

let block_of (p : Program.t) (o : Commute.op) =
  let table =
    match o.op_kind with
    | `Ins -> p.on_ins
    | `Del -> p.on_del
    | `Set -> p.on_set
  in
  List.assoc_opt o.op_rel table

let request_of (o : Commute.op) args =
  match o.op_kind with
  | `Ins -> Request.ins o.op_rel args
  | `Del -> Request.del o.op_rel args
  | `Set -> Request.set o.op_rel (List.hd args)

(* --- static evidence (layers 1 and 2) --------------------------------------- *)

(* Does the block read the symbol the op writes (relation atom or free
   constant occurrence)? If not, no member of a same-op batch can
   observe another member's write — the batch is tick-safe
   syntactically. Temporaries are scanned directly: a rule consuming a
   temp that read the symbol is covered by the temp's own mention. *)
let block_reads (u : Program.update) name =
  let reads_in (r : Program.rule) =
    List.exists (fun (n, _) -> n = name) (Formula.rel_atoms r.body)
    || List.exists
         (fun x ->
           x = name && (not (List.mem x u.params)) && not (List.mem x r.vars))
         (Formula.free_vars r.body)
  in
  List.exists reads_in (u.temps @ u.rules)

(* Every rule carries a slab frame in its Support plan: the delta
   backend bounds each member's frontier by slabs, so a group's
   frontiers union into one [`Mask_words] mask. *)
let framed (u : Program.update) =
  u.rules <> []
  && List.for_all
       (fun (r : Program.rule) ->
         match (Support.plan_rule r).Delta_eval.rp_frame with
         | Some { f_out = Slabs _; f_in = Slabs _ } -> true
         | _ -> false)
       u.rules

type source = Commute.source = Syntactic | Frames | Mc_only

let static_evidence p (o : Commute.op) =
  match block_of p o with
  | None -> (Syntactic, "no update block — default maintenance only")
  | Some (u : Program.update) when u.rules = [] && u.temps = [] ->
      (Syntactic, "empty update block")
  | Some u when not (block_reads u o.op_rel) ->
      (Syntactic, "no rule reads the written symbol across members")
  | Some u when framed u ->
      (Frames, "every rule carries a slab frame — one union mask per group")
  | Some _ -> (Mc_only, "no static batch-safety evidence")

(* --- the bounded model checker (layer 3) ------------------------------------ *)

type domain = Commute.domain = Synthetic | Reachable

type law = Commute.law = {
  law_holds : bool;
  law_domain : domain;
  law_checks : int;
}

let pow = Refmodel.pow
let decode_tuple = Refmodel.decode_tuple

type mc_result = {
  mc_checks : int;
  mc_exhaustive_upto : int;
  mc_cex : (int * int list list) option;  (** size, offending member args *)
}

(* Synthetic structures — arbitrary auxiliary contents, the strict
   superset of the reachable states (same enumeration discipline as
   Commute.run_synthetic, distinct seed). [arities] is one entry per
   batch member. *)
let run_synthetic ~max_size ~budget ~samples (p : Program.t) ~arities ~check =
  let vocab = Program.vocab p in
  let rels =
    List.map (fun (s : Vocab.sym) -> (s.name, s.arity)) (Vocab.relations vocab)
  in
  let consts = Vocab.constants vocab in
  let checks = ref 0 in
  let cex = ref None in
  let test size st argss =
    if !cex = None then begin
      incr checks;
      if not (check st argss) then cex := Some (size, argss)
    end
  in
  let all_args size =
    List.fold_left
      (fun acc arity ->
        List.concat_map
          (fun prefix ->
            List.init (pow size arity) (fun i ->
                prefix @ [ Array.to_list (decode_tuple ~size ~arity i) ]))
          acc)
      [ [] ] arities
  in
  let exhaustive_upto = ref 0 in
  for size = 1 to max_size do
    if !cex = None then begin
      let bits = List.fold_left (fun acc (_, a) -> acc + pow size a) 0 rels in
      let args = all_args size in
      let combos = pow size (List.length consts) * List.length args in
      if bits <= 16 && (1 lsl bits) * combos <= budget then begin
        for pattern = 0 to (1 lsl bits) - 1 do
          let base = ref (Structure.create ~size vocab) in
          let bit = ref 0 in
          List.iter
            (fun (name, arity) ->
              for i = 0 to pow size arity - 1 do
                if (pattern lsr !bit) land 1 = 1 then
                  base :=
                    Structure.add_tuple !base name (decode_tuple ~size ~arity i);
                incr bit
              done)
            rels;
          for ci = 0 to pow size (List.length consts) - 1 do
            let rest = ref ci in
            let st =
              List.fold_left
                (fun st c ->
                  let v = !rest mod size in
                  rest := !rest / size;
                  Structure.with_const st c v)
                !base consts
            in
            List.iter (test size st) args
          done
        done;
        if !exhaustive_upto = size - 1 then exhaustive_upto := size
      end
      else begin
        let rng = Random.State.make [| 0xDEFC; size; bits |] in
        for _ = 1 to samples do
          let st = ref (Structure.create ~size vocab) in
          List.iter
            (fun (name, arity) ->
              let density =
                match Random.State.int rng 3 with
                | 0 -> 0.15
                | 1 -> 0.5
                | _ -> 0.85
              in
              for i = 0 to pow size arity - 1 do
                if Random.State.float rng 1.0 < density then
                  st :=
                    Structure.add_tuple !st name (decode_tuple ~size ~arity i)
              done)
            rels;
          let st =
            List.fold_left
              (fun st c -> Structure.with_const st c (Random.State.int rng size))
              !st consts
          in
          for _ = 1 to 4 do
            let argss =
              List.map
                (fun arity ->
                  List.init arity (fun _ -> Random.State.int rng size))
                arities
            in
            test size st argss
          done
        done
      end
    end
  done;
  { mc_checks = !checks; mc_exhaustive_upto = !exhaustive_upto; mc_cex = !cex }

let run_reachable states ~arities ~check =
  let checks = ref 0 in
  let cex = ref None in
  let rng = Random.State.make [| 0x5EED |] in
  List.iter
    (fun (size, s) ->
      if !cex = None then begin
        let st = Runner.structure s in
        let total = pow size (List.fold_left ( + ) 0 arities) in
        let argss_list =
          if total <= 128 then
            List.fold_left
              (fun acc arity ->
                List.concat_map
                  (fun prefix ->
                    List.init (pow size arity) (fun i ->
                        prefix @ [ Array.to_list (decode_tuple ~size ~arity i) ]))
                  acc)
              [ [] ] arities
          else
            List.init 64 (fun _ ->
                List.map
                  (fun arity ->
                    List.init arity (fun _ -> Random.State.int rng size))
                  arities)
        in
        List.iter
          (fun argss ->
            if !cex = None then begin
              incr checks;
              if not (check st argss) then cex := Some (size, argss)
            end)
          argss_list
      end)
    states;
  { mc_checks = !checks; mc_exhaustive_upto = 0; mc_cex = !cex }

(* The batch laws quantify over the batch size too: run each phase at
   sizes 1, 2 and 3 members and combine (first counterexample wins,
   exhaustive bound is the weakest claim across sizes). *)
let batch_sizes = [ 1; 2; 3 ]

let run_batches ~op_arity run =
  let rec go checks exh = function
    | [] ->
        {
          mc_checks = checks;
          mc_exhaustive_upto = (if exh = max_int then 0 else exh);
          mc_cex = None;
        }
    | k :: rest -> (
        let r = run ~arities:(List.init k (fun _ -> op_arity)) in
        match r.mc_cex with
        | Some _ -> { r with mc_checks = checks + r.mc_checks }
        | None ->
            go (checks + r.mc_checks) (min exh r.mc_exhaustive_upto) rest)
  in
  go 0 max_int batch_sizes

(* Phase A (synthetic, strongest) then phase B (reachable) — a law is
   only believed when one of them confirms it with at least one check,
   exactly as Commute.verify_law. *)
let verify_law ~max_size ~budget ~samples p states ~op_arity ~check =
  let a =
    run_batches ~op_arity (fun ~arities ->
        run_synthetic ~max_size ~budget ~samples p ~arities ~check)
  in
  match a.mc_cex with
  | None when a.mc_checks > 0 ->
      ( Some Synthetic,
        a,
        { law_holds = true; law_domain = Synthetic; law_checks = a.mc_checks }
      )
  | _ -> (
      let b =
        run_batches ~op_arity (fun ~arities ->
            run_reachable (Lazy.force states) ~arities ~check)
      in
      match b.mc_cex with
      | None when b.mc_checks > 0 ->
          ( Some Reachable,
            { b with mc_exhaustive_upto = a.mc_exhaustive_upto },
            {
              law_holds = true;
              law_domain = Reachable;
              law_checks = b.mc_checks;
            } )
      | _ ->
          let r =
            if b.mc_cex <> None then b
            else if a.mc_cex <> None then a
            else { a with mc_checks = a.mc_checks + b.mc_checks }
          in
          ( None,
            r,
            { law_holds = false; law_domain = Synthetic; law_checks = r.mc_checks }
          ))

(* --- the laws --------------------------------------------------------------- *)

(* Reference semantics for every law: the singleton-sequence fold on
   the tuple backend, memoized in the run's [Refmodel] table. Each law
   compares its exploited code path's output against it. *)
let fold_ref rm reqs st = Refmodel.fold rm (Refmodel.start rm st) reqs

(* Absorb law: the exploited code path [Runner.absorb_group] equals the
   fold, on every state and batch. On a cadence, the whole
   [step_batch] pipeline with the verdict forced — expansion, planning
   and dispatch included — is cross-checked too, so the licensed path
   and the checked path cannot drift apart. *)
let absorb_check rm p o =
  let count = ref 0 in
  fun st argss ->
    incr count;
    let reqs = List.map (request_of o) argss in
    let fold_s = fold_ref rm reqs st in
    let abs_s = Runner.absorb_group (Runner.restore p st) reqs in
    Refmodel.matches fold_s (Runner.structure abs_s)
    && (!count land 7 <> 0
       ||
       let full =
         Runner.step_batch ~backend:`Tuple ~oracle:Runner.null_oracle
           ~defchange:(fun _ _ -> `Absorb)
           (Runner.restore p st) reqs
       in
       Refmodel.matches fold_s (Runner.structure full))

(* Stream law: the delta backend folding the group under one batch
   scope (one mask clear, unioned frontiers) equals the fold. Sound
   unconditionally — superset frontiers re-test with the full rule
   body — but checked anyway so an implementation regression is caught
   here, not in serving. Cadence cross-check on the bulk backend
   (where [`Stream] degenerates to the plain fold). *)
let stream_check rm p o =
  let count = ref 0 in
  fun st argss ->
    incr count;
    let reqs = List.map (request_of o) argss in
    let fold_s = fold_ref rm reqs st in
    let str_s =
      Runner.step_batch ~backend:`Delta ~oracle:Runner.null_oracle
        ~defchange:(fun _ _ -> `Stream)
        (Runner.restore p st) reqs
    in
    Refmodel.matches fold_s (Runner.structure str_s)
    && (!count land 3 <> 0
       ||
       let bulk_s =
         Runner.step_batch ~backend:`Bulk ~oracle:Runner.null_oracle
           ~defchange:(fun _ _ -> `Stream)
           (Runner.restore p st) reqs
       in
       Refmodel.matches fold_s (Runner.structure bulk_s))

(* FO-definable set-change law: the [insdef]/[deldef] request whose
   formula denotes exactly the member tuples equals the explicit
   sorted fold — i.e. [Request.expand]'s simultaneous pre-state
   reading matches the specification independently recomputed here.
   Ins/del ops only (constants have no set form). *)
let fresh_vars (p : Program.t) k =
  let vocab = Program.vocab p in
  List.init k (fun i ->
      let rec free n = if Vocab.mem_const vocab n then free (n ^ "x") else n in
      free (Printf.sprintf "x%d" i))

let def_check rm p (o : Commute.op) =
  let vars = fresh_vars p o.op_arity in
  let count = ref 0 in
  fun st argss ->
    incr count;
    let tuples = List.map Array.of_list argss in
    let point t =
      Formula.conj
        (List.mapi (fun i x -> Formula.Eq (Formula.Var x, Formula.Num t.(i))) vars)
    in
    let phi = Formula.disj (List.map point tuples) in
    let req, keep, mk =
      match o.op_kind with
      | `Ins ->
          ( Request.Ins_def (o.op_rel, vars, phi),
            (fun t -> not (Structure.mem st o.op_rel t)),
            fun t -> Request.Ins (o.op_rel, t) )
      | `Del ->
          ( Request.Del_def (o.op_rel, vars, phi),
            (fun t -> Structure.mem st o.op_rel t),
            fun t -> Request.Del (o.op_rel, t) )
      | `Set -> assert false
    in
    let expected =
      List.filter keep (List.sort_uniq Tuple.compare tuples) |> List.map mk
    in
    let fold_s = fold_ref rm expected st in
    let backend = if !count land 3 = 0 then `Delta else `Tuple in
    (* [`Fold] forced: this law checks the expansion semantics itself
       (and must not re-enter the installed oracle mid-analysis) *)
    let def_s =
      Runner.step_batch ~backend ~oracle:Runner.null_oracle
        ~defchange:(fun _ _ -> `Fold)
        (Runner.restore p st) [ req ]
    in
    Refmodel.matches fold_s (Runner.structure def_s)

(* --- verdicts --------------------------------------------------------------- *)

type verdict = Absorb | Stream | Fold | Unknown

type cell = {
  d_op : Commute.op;
  d_verdict : verdict;
  d_source : source;
  d_domain : domain option;  (** the granting law's domain; [Some] on Absorb/Stream *)
  d_checks : int;  (** total model-checker combinations across all laws *)
  d_exhaustive_upto : int;  (** the granting law's exhaustive size bound *)
  d_absorb : law;
  d_stream : law;
  d_definable : law;  (** trivial (0 checks) for [set] ops — no set form *)
  d_reason : string;
}

type matrix = { m_program : string; m_cells : cell list }

let pp_args argss =
  String.concat "; "
    (List.map
       (fun a -> "(" ^ String.concat "," (List.map string_of_int a) ^ ")")
       argss)

let domain_desc dom mc =
  match dom with
  | Some Synthetic ->
      Printf.sprintf "on synthetic structures (%d checks, exhaustive to n=%d)"
        mc.mc_checks mc.mc_exhaustive_upto
  | Some Reachable ->
      Printf.sprintf "on reachable states only (%d checks)" mc.mc_checks
  | None -> "nowhere"

let cex_desc what mc =
  match mc.mc_cex with
  | Some (n, argss) ->
      Printf.sprintf "%s refuted at n=%d, args %s" what n (pp_args argss)
  | None -> Printf.sprintf "%s unverified" what

let analyze ?(max_size = 4) ?(budget = 20_000) ?(samples = 48)
    (p : Program.t) =
  let states = lazy (Refmodel.reachable_states ~max_size p) in
  let verify = verify_law ~max_size ~budget ~samples p states in
  let rm = Refmodel.create ~max_size p in
  let trivial = { law_holds = true; law_domain = Synthetic; law_checks = 0 } in
  let no_mc = { mc_checks = 0; mc_exhaustive_upto = 0; mc_cex = None } in
  let cell_of (o : Commute.op) =
    let source, static_reason = static_evidence p o in
    let dom_a, mc_a, law_a =
      verify ~op_arity:o.op_arity ~check:(absorb_check rm p o)
    in
    let dom_s, mc_s, law_s =
      verify ~op_arity:o.op_arity ~check:(stream_check rm p o)
    in
    let dom_d, mc_d, law_d =
      match o.op_kind with
      | `Set -> (None, no_mc, trivial)
      | `Ins | `Del -> verify ~op_arity:o.op_arity ~check:(def_check rm p o)
    in
    let def_ok = law_d.law_holds in
    let checks = mc_a.mc_checks + mc_s.mc_checks + mc_d.mc_checks in
    let def_note =
      match o.op_kind with
      | `Set -> ""
      | `Ins | `Del ->
          if def_ok then
            Printf.sprintf "; definable-change expansion confirmed %s"
              (domain_desc dom_d mc_d)
          else Printf.sprintf "; %s" (cex_desc "definable-change expansion" mc_d)
    in
    let verdict, domain, exh, reason =
      if law_a.law_holds && def_ok then
        ( Absorb,
          dom_a,
          mc_a.mc_exhaustive_upto,
          Printf.sprintf "%s; absorb law confirmed %s%s" static_reason
            (domain_desc dom_a mc_a) def_note )
      else if law_s.law_holds && def_ok then
        ( Stream,
          dom_s,
          mc_s.mc_exhaustive_upto,
          Printf.sprintf "%s; %s; stream law confirmed %s%s" static_reason
            (cex_desc "absorb" mc_a) (domain_desc dom_s mc_s) def_note )
      else if checks = 0 then
        (Unknown, None, 0, "no state/argument combination checked — unverified")
      else
        ( Fold,
          None,
          0,
          Printf.sprintf "%s; %s; %s%s" static_reason (cex_desc "absorb" mc_a)
            (cex_desc "stream" mc_s) def_note )
    in
    {
      d_op = o;
      d_verdict = verdict;
      d_source = source;
      d_domain = domain;
      d_checks = checks;
      d_exhaustive_upto = exh;
      d_absorb = law_a;
      d_stream = law_s;
      d_definable = law_d;
      d_reason = reason;
    }
  in
  { m_program = p.name; m_cells = List.map cell_of (ops_of p) }

(* --- lookups ---------------------------------------------------------------- *)

let find_cell m kind rel =
  List.find_opt
    (fun c -> c.d_op.Commute.op_kind = kind && c.d_op.Commute.op_rel = rel)
    m.m_cells

let verdict m kind rel =
  match find_cell m kind rel with Some c -> c.d_verdict | None -> Unknown

(* --- memoized analysis ------------------------------------------------------ *)

let memo = Memo.create ~limit:32 (fun p -> analyze p)
let matrix_of p = Memo.find memo p

(* --- the runner oracle ------------------------------------------------------ *)

let oracle_of (p : Program.t) kind rel : Runner.defchange_verdict =
  match verdict (matrix_of p) kind rel with
  | Absorb -> `Absorb
  | Stream -> `Stream
  | Fold | Unknown -> `Fold

let install () = Runner.set_defchange_oracle oracle_of

(* --- rendering -------------------------------------------------------------- *)

let verdict_string = function
  | Absorb -> "absorb"
  | Stream -> "stream"
  | Fold -> "fold"
  | Unknown -> "unknown"

let verdict_char = function
  | Absorb -> 'A'
  | Stream -> 'S'
  | Fold -> 'F'
  | Unknown -> '?'

let source_string = Commute.source_string
let domain_string = Commute.domain_string

let pp_law ppf (what, l) =
  if l.law_holds then
    if l.law_checks = 0 then Format.fprintf ppf "%s (trivial)" what
    else
      Format.fprintf ppf "%s (%s, %d checks)" what
        (domain_string l.law_domain)
        l.law_checks
  else Format.fprintf ppf "not %s" what

let pp ppf m =
  Format.fprintf ppf
    "%s: %d op(s) — A absorb / S stream / F fold / ? unknown@." m.m_program
    (List.length m.m_cells);
  List.iter
    (fun c ->
      Format.fprintf ppf "  %c %s: %s [%s] — %s@."
        (verdict_char c.d_verdict)
        (op_name c.d_op)
        (verdict_string c.d_verdict)
        (source_string c.d_source)
        c.d_reason;
      Format.fprintf ppf "      %a; %a; %a@." pp_law ("absorb", c.d_absorb)
        pp_law ("stream", c.d_stream) pp_law ("definable", c.d_definable))
    m.m_cells

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pp_law_json ppf l =
  Format.fprintf ppf "{\"holds\": %b, \"domain\": \"%s\", \"checks\": %d}"
    l.law_holds
    (domain_string l.law_domain)
    l.law_checks

let pp_json ppf m =
  let sep ppf () = Format.pp_print_string ppf ", " in
  Format.fprintf ppf "{\"version\": %d, \"program\": \"%s\", \"cells\": [%a]}"
    Report.version m.m_program
    (Format.pp_print_list ~pp_sep:sep (fun ppf c ->
         Format.fprintf ppf
           "{\"op\": \"%s\", \"arity\": %d, \"verdict\": \"%s\", \"source\": \
            \"%s\", \"domain\": %s, \"checks\": %d, \"exhaustive_upto\": %d, \
            \"absorb\": %a, \"stream\": %a, \"definable\": %a, \"reason\": \
            \"%s\"}"
           (op_name c.d_op) c.d_op.Commute.op_arity
           (verdict_string c.d_verdict)
           (source_string c.d_source)
           (match c.d_domain with
           | Some d -> "\"" ^ domain_string d ^ "\""
           | None -> "null")
           c.d_checks c.d_exhaustive_upto pp_law_json c.d_absorb pp_law_json
           c.d_stream pp_law_json c.d_definable
           (json_escape c.d_reason)))
    m.m_cells

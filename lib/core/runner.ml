open Dynfo_logic

(* --- muddle-through ---------------------------------------------------------

   The "start over and muddle through" strategy (Datta et al.): when an
   incremental step's frontier blows its budget, the sequential answer
   is a full recompute — which at paged scale can take arbitrarily long.
   Instead of paying it inline, the runner can hand the blown step to a
   background rebuild thread and keep answering queries from the stale
   structure; every request arriving while the rebuild runs is queued.
   When the rebuild lands, the queued requests are replayed in order
   (each replay may itself blow its budget and chain a new rebuild — the
   queue strictly shrinks, so draining terminates). The convergence law,
   asserted by the lockstep tests: once drained ([await_muddle]), the
   structure equals the purely sequential fold of every request, and
   while muddling every answer equals the sequential answer after some
   prefix of the requests seen so far — stale, never wrong. *)

type rebuild = {
  rb_req : Request.t;  (* the step being rebuilt, from its pre-state *)
  mutable rb_thread : Thread.t option;
  mutable rb_done : (Structure.t, exn) result option;
  mutable rb_pending : Request.t list;  (* queued behind it, reversed *)
}

type muddle = {
  md_rebuild : Program.t -> Structure.t -> Request.t -> Structure.t;
  md_lock : Mutex.t;
  md_cond : Condition.t;
  mutable md_active : rebuild option;
  mutable md_count : int;  (* rebuilds spawned on this state *)
}

let muddle_rebuilds_c = Atomic.make 0
let muddle_rebuilds () = Atomic.get muddle_rebuilds_c
let reset_muddle_counters () = Atomic.set muddle_rebuilds_c 0

type state = {
  program : Program.t;
  structure : Structure.t;
  muddle : muddle option;
}

let init (p : Program.t) ~size =
  let st = p.init size in
  (* sanity: the initial structure must expose the whole vocabulary *)
  ignore (Structure.restrict st (Program.vocab p));
  { program = p; structure = st; muddle = None }

let structure s = s.structure
let input s = Structure.restrict s.structure s.program.input_vocab
let program s = s.program

type backend = [ `Tuple | `Bulk | `Delta | `Auto ]

(* [`Auto] resolution is delegated so the core library does not depend on
   the analysis layer: [Dynfo_analysis.Advisor.install] replaces the
   chooser with the metrics-driven one. Until then [`Auto] means
   [`Tuple], the conservative default. *)
let auto_chooser : (Program.t -> [ `Tuple | `Bulk | `Delta ]) ref =
  ref (fun _ -> `Tuple)

let set_auto_chooser f = auto_chooser := f

(* Same injection pattern for the delta backend's static support plans:
   [Dynfo_analysis.Advisor.install] (via Support) replaces the planner.
   The conservative default plan has no frames, so [`Delta] degenerates
   to per-rule full recomputes on the tuple backend until then. *)
let delta_planner : (Program.t -> Delta_eval.program_plan) ref =
  ref (fun _ -> Delta_eval.conservative_plan)

let set_delta_planner f =
  delta_planner := f;
  (* plans key the evaluator's persistent frontier state (testers, mask
     buffers, anchor caches); a new planner makes the old plans
     unreachable, so drop the state they pin — an advisor-driven
     backend/planner switch must not keep stale buffers alive *)
  Delta_eval.invalidate ()

let delta_plan p = !delta_planner p

let resolve_backend (p : Program.t) (b : backend) =
  match b with
  | `Auto -> !auto_chooser p
  | (`Tuple | `Bulk | `Delta) as b -> b

(* Third instance of the injection pattern: the per-program commutation
   oracle behind the batch planner and the serving layer's coalescing.
   Every field must answer [false] unless the corresponding law was
   verified for the program — the default oracle trusts nothing, so
   [step_batch] degenerates to in-order evaluation until
   [Dynfo_analysis.Commute.install] swaps in the verified matrix. *)
type commute_oracle = {
  co_swap : Request.t -> Request.t -> bool;
  co_elidable : Request.t -> bool;
  co_dedupe : Request.t -> bool;
  co_invisible : Request.t -> string option -> bool;
}

let null_oracle =
  {
    co_swap = (fun _ _ -> false);
    co_elidable = (fun _ -> false);
    co_dedupe = (fun _ -> false);
    co_invisible = (fun _ _ -> false);
  }

let commute_oracle_ref : (Program.t -> commute_oracle) ref =
  ref (fun _ -> null_oracle)

let set_commute_oracle f = commute_oracle_ref := f
let commute_oracle p = !commute_oracle_ref p

(* Fourth instance of the injection pattern: the per-program definable-
   change oracle behind [step_batch]'s set-at-a-time paths. Per (update
   kind, input relation) it answers how a whole same-op group may be
   evaluated in one tick:
   - [`Absorb]: apply the input changes only, skip the update block —
     licensed by a model-checked law that the block leaves nothing else
     to maintain for this op (e.g. ops with no update block at all);
   - [`Stream]: fold the members under one [Delta_eval] batch scope, so
     the delta backend accumulates a single dirty mask for the group
     instead of clearing and rebuilding per member — sound
     unconditionally (superset frontiers re-test with the full body),
     and model-checked against the singleton fold anyway;
   - [`Fold]: no verified law — the existing singleton fold, bit for
     bit. The default oracle answers [`Fold] for everything;
     [Dynfo_analysis.Defchange.install] swaps in the verified matrix. *)
type defchange_verdict = [ `Absorb | `Stream | `Fold ]

let defchange_oracle_ref :
    (Program.t -> [ `Ins | `Del | `Set ] -> string -> defchange_verdict) ref =
  ref (fun _ _ _ -> `Fold)

let set_defchange_oracle f = defchange_oracle_ref := f
let defchange_verdict p kind rel = !defchange_oracle_ref p kind rel

let seq_rules_define st ~env rules =
  List.map
    (fun (r : Program.rule) ->
      (r.target, Eval.define st ~vars:r.vars ~env r.body))
    rules

let bulk_rules_define st ~env rules =
  List.map
    (fun (r : Program.rule) ->
      (r.target, Bulk_eval.define st ~vars:r.vars ~env r.body))
    rules

let rules_define_for = function
  | `Tuple -> seq_rules_define
  | `Bulk -> bulk_rules_define

(* The block plan's entry for a rule or temporary, validated against
   the actual rule (vars + body) so a stale plan for a same-named
   variant of the program is ignored instead of misevaluating. *)
let rule_plan block (r : Program.rule) =
  match Option.bind block (fun bp -> Delta_eval.rule_plan_for bp r.target) with
  | Some rp when Delta_eval.plan_matches rp ~vars:r.vars r.body -> Some rp
  | _ -> None

(* The delta backend's [rules_define]: look the rule up in the block's
   plan and evaluate its dirty frontier only. Temporaries (fresh every
   step, nothing to be incremental against) and unframed rules have
   unframed plans: recomputed in full on the plan's fallback backend,
   through the plan's cached tester. Only a rule without a valid plan
   compiles afresh. *)
let delta_rules_define ?batch (plan : Delta_eval.program_plan) block st ~env
    rules =
  let fallback = plan.Delta_eval.pp_fallback in
  List.map
    (fun (r : Program.rule) ->
      match rule_plan block r with
      | Some rp -> (r.target, Delta_eval.define ~fallback st ~env ?batch rp)
      | None ->
          (r.target, Delta_eval.full_define fallback st ~vars:r.vars ~env r.body))
    rules

(* Per-request plan selection for [`Delta]: the request kind + input
   relation name pick the update block, hence the block plan. Shared
   with [Dynfo_engine.Par_runner], which substitutes its own frontier
   evaluation but reuses the same lookup. *)
let delta_block_for (p : Program.t) req =
  let plan = !delta_planner p in
  let block =
    match req with
    | Request.Ins (name, _)
    | Request.Ins_set (name, _)
    | Request.Ins_def (name, _, _) ->
        Delta_eval.block_for plan `Ins name
    | Request.Del (name, _)
    | Request.Del_set (name, _)
    | Request.Del_def (name, _, _) ->
        Delta_eval.block_for plan `Del name
    | Request.Set (name, _) -> Delta_eval.block_for plan `Set name
  in
  (plan, block)

let apply_update_with ~rules_define st (u : Program.update) (args : int list)
    =
  (* reject last-wins races: one simultaneous block, one writer per target
     (programs built by [Program.make] are already validated; this guards
     hand-assembled ones and keeps the parallel engine's install phase
     order-independent) *)
  ignore
    (List.fold_left
       (fun seen (r : Program.rule) ->
         if List.mem r.target seen then
           invalid_arg
             (Printf.sprintf
                "Runner.step: update block redefines target %s twice"
                r.target);
         r.target :: seen)
       [] u.rules);
  let env = List.combine u.params args in
  (* temporaries: sequential, visible to later temps and to rules; each
     goes through [rules_define] too (as a one-rule block) so backends
     and the parallel engine cover the temp evaluations as well *)
  let with_temps =
    List.fold_left
      (fun acc (r : Program.rule) ->
        match rules_define acc ~env [ r ] with
        | [ (_, rel) ] -> Structure.declare_rel acc r.target rel
        | _ -> assert false)
      st u.temps
  in
  (* rules: all evaluated against the pre-state (+temps), then installed *)
  let new_rels = rules_define with_temps ~env u.rules in
  List.fold_left (fun acc (name, rel) -> Structure.with_rel acc name rel) st
    new_rels

let rec step_with_unchecked ~rules_define s req =
  let apply_update = apply_update_with ~rules_define in
  let p = s.program in
  let structure =
    match req with
    | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
    | Request.Del_def _ ->
        (* a set request outside a batch tick: expand against the current
           structure and fold the singleton sequence it denotes *)
        (List.fold_left
           (step_with_unchecked ~rules_define)
           s
           (Request.expand s.structure req))
          .structure
    | Request.Ins (name, tup) ->
        let st =
          match List.assoc_opt name p.on_ins with
          | Some u -> apply_update s.structure u (Array.to_list tup)
          | None -> s.structure
        in
        (* default maintenance of the input relation itself *)
        let handled =
          match List.assoc_opt name p.on_ins with
          | Some u -> List.exists (fun (r : Program.rule) -> r.target = name) u.rules
          | None -> false
        in
        if handled then st else Structure.add_tuple st name tup
    | Request.Del (name, tup) ->
        let st =
          match List.assoc_opt name p.on_del with
          | Some u -> apply_update s.structure u (Array.to_list tup)
          | None -> s.structure
        in
        let handled =
          match List.assoc_opt name p.on_del with
          | Some u -> List.exists (fun (r : Program.rule) -> r.target = name) u.rules
          | None -> false
        in
        if handled then st else Structure.del_tuple st name tup
    | Request.Set (name, a) ->
        let st = Structure.with_const s.structure name a in
        (match List.assoc_opt name p.on_set with
        | Some u -> apply_update st u []
        | None -> st)
  in
  { s with structure }

let validate_request ~who s req =
  let p = s.program in
  let size = Structure.size s.structure in
  if not (Request.valid p.input_vocab ~size req) then
    invalid_arg
      (Printf.sprintf "%s: invalid request %s for program %s" who
         (Request.to_string req) p.name)

let step_with ~rules_define s req =
  validate_request ~who:"Runner.step" s req;
  step_with_unchecked ~rules_define s req

(* one step on a concrete backend, muddle-blind *)
let step_plain resolved s req =
  match resolved with
  | (`Tuple | `Bulk) as backend ->
      step_with_unchecked ~rules_define:(rules_define_for backend) s req
  | `Delta ->
      let plan, block = delta_block_for s.program req in
      step_with_unchecked ~rules_define:(delta_rules_define plan block) s req

(* --- the muddle-through step ------------------------------------------------ *)

exception Budget_blown

(* [delta_rules_define] that refuses full recomputes of *framed* rules:
   a frontier past the budget raises [Budget_blown] instead of paying
   the recompute inline. Temporaries and unframed rules recompute as
   usual — they are full evaluations on every delta step by design, so
   they are part of the step's normal cost, not a blowup. *)
let muddle_rules_define (plan : Delta_eval.program_plan) block st ~env rules =
  let fallback = plan.Delta_eval.pp_fallback in
  List.map
    (fun (r : Program.rule) ->
      match rule_plan block r with
      | Some rp when rp.Delta_eval.rp_frame <> None -> (
          match Delta_eval.try_define st ~env rp with
          | Some rel -> (r.target, rel)
          | None -> raise Budget_blown)
      | Some rp -> (r.target, Delta_eval.define ~fallback st ~env rp)
      | None ->
          (r.target, Delta_eval.full_define fallback st ~vars:r.vars ~env r.body))
    rules

(* must be called with [md.md_lock] held *)
let spawn_rebuild s md req =
  Atomic.incr muddle_rebuilds_c;
  md.md_count <- md.md_count + 1;
  let p = s.program and base = s.structure in
  let rb = { rb_req = req; rb_thread = None; rb_done = None; rb_pending = [] }
  in
  let t =
    Thread.create
      (fun () ->
        let res =
          try Ok (md.md_rebuild p base req) with e -> Error e
        in
        Mutex.lock md.md_lock;
        rb.rb_done <- Some res;
        Condition.broadcast md.md_cond;
        Mutex.unlock md.md_lock)
      ()
  in
  rb.rb_thread <- Some t;
  md.md_active <- Some rb

let rec muddle_step resolved s md req =
  let s = muddle_adopt resolved s md in
  let enqueued =
    Mutex.protect md.md_lock (fun () ->
        match md.md_active with
        | Some rb ->
            rb.rb_pending <- req :: rb.rb_pending;
            true
        | None -> false)
  in
  if enqueued then s (* stale answers until the rebuild lands *)
  else
    match resolved with
    | `Tuple | `Bulk -> step_plain resolved s req
    | `Delta -> (
        let plan, block = delta_block_for s.program req in
        match
          step_with_unchecked ~rules_define:(muddle_rules_define plan block) s
            req
        with
        | s' -> s'
        | exception Budget_blown ->
            (* nothing was installed: [step_with_unchecked] is
               functional, the exception leaves [s] untouched. Hand the
               whole request to the background rebuild. *)
            Mutex.protect md.md_lock (fun () -> spawn_rebuild s md req);
            s)

(* adopt a finished rebuild, replaying whatever queued behind it (a
   replayed step may blow its own budget and chain a fresh rebuild —
   the pending queue strictly shrinks, so draining terminates) *)
and muddle_adopt resolved s md =
  let finished =
    Mutex.protect md.md_lock (fun () ->
        match md.md_active with
        | Some rb when rb.rb_done <> None ->
            md.md_active <- None;
            Some rb
        | _ -> None)
  in
  match finished with
  | None -> s
  | Some rb ->
      (match rb.rb_thread with Some t -> Thread.join t | None -> ());
      let structure =
        match rb.rb_done with
        | Some (Ok st) -> st
        | Some (Error e) -> raise e
        | None -> assert false
      in
      List.fold_left
        (fun s req -> muddle_step resolved s md req)
        { s with structure }
        (List.rev rb.rb_pending)

let step_unchecked ?(backend = `Tuple) s req =
  let resolved = resolve_backend s.program backend in
  match s.muddle with
  | None -> step_plain resolved s req
  | Some md -> muddle_step resolved s md req

let step ?backend s req =
  validate_request ~who:"Runner.step" s req;
  step_unchecked ?backend s req

let run ?backend s reqs = List.fold_left (step ?backend) s reqs

(* --- muddle lifecycle ------------------------------------------------------- *)

let default_rebuild p st req =
  let fallback = (!delta_planner p).Delta_eval.pp_fallback in
  (step_with_unchecked
     ~rules_define:(rules_define_for fallback)
     { program = p; structure = st; muddle = None }
     req)
    .structure

let enable_muddle ?rebuild s =
  let md_rebuild =
    match rebuild with Some f -> f | None -> default_rebuild
  in
  {
    s with
    muddle =
      Some
        {
          md_rebuild;
          md_lock = Mutex.create ();
          md_cond = Condition.create ();
          md_active = None;
          md_count = 0;
        };
  }

let muddle_enabled s = s.muddle <> None

let muddle_active s =
  match s.muddle with
  | None -> false
  | Some md -> Mutex.protect md.md_lock (fun () -> md.md_active <> None)

let rebuild_count s =
  match s.muddle with
  | None -> 0
  | Some md -> Mutex.protect md.md_lock (fun () -> md.md_count)

let rec await_muddle ?(backend = `Delta) s =
  match s.muddle with
  | None -> s
  | Some md ->
      Mutex.protect md.md_lock (fun () ->
          let rec wait () =
            match md.md_active with
            | Some rb when rb.rb_done = None ->
                Condition.wait md.md_cond md.md_lock;
                wait ()
            | _ -> ()
          in
          wait ());
      let s = muddle_adopt (resolve_backend s.program backend) s md in
      if muddle_active s then await_muddle ~backend s else s

(* --- commute-aware batch planning ------------------------------------------ *)

(* Does [req] change nothing about the input part of the state? Only
   consulted for ops whose redundant-request no-op law the oracle
   verified, so skipping the update block entirely is state-preserving. *)
let redundant st = function
  | Request.Ins (name, tup) -> Structure.mem st name tup
  | Request.Del (name, tup) -> not (Structure.mem st name tup)
  | Request.Set (name, v) -> Structure.const st name = v
  | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
  | Request.Del_def _ ->
      (* set requests are expanded before elision is consulted; an
         unexpanded one is never known-redundant *)
      false

let op_key = function
  | Request.Ins (n, _) | Request.Ins_set (n, _) | Request.Ins_def (n, _, _) ->
      (`Ins, n)
  | Request.Del (n, _) | Request.Del_set (n, _) | Request.Del_def (n, _, _) ->
      (`Del, n)
  | Request.Set (n, _) -> (`Set, n)

(* Greedy stable grouping: each request joins the most recent group of
   its own operation it can reach by commuting (pairwise, as judged by
   [swap]) past every request of the newer groups in between; otherwise
   it opens a new group at the tail. Requests only ever move earlier,
   the displaced ones keep their relative order, and every adjacent
   transposition is oracle-approved — so the concatenation of the groups
   is equivalent to the original sequence. With the null oracle only the
   newest group is ever joined, i.e. the plan degenerates to the maximal
   same-operation runs of the request list, in order. *)
let plan_groups_with swap reqs =
  let place groups r =
    let key = op_key r in
    let rec go newer = function
      | (k, members) :: older when k = key ->
          Some (List.rev_append newer ((k, r :: members) :: older))
      | (k, members) :: older when List.for_all (fun r' -> swap r' r) members
        ->
          go ((k, members) :: newer) older
      | _ -> None
    in
    match go [] groups with
    | Some groups -> groups
    | None -> (key, [ r ]) :: groups
  in
  List.fold_left place [] reqs
  |> List.rev_map (fun (_, members) -> List.rev members)

let plan_groups p reqs =
  plan_groups_with (!commute_oracle_ref p).co_swap reqs

type batch_info = {
  bi_groups : int;
  bi_elided : int;
  bi_absorbed : int;
  bi_streamed : int;
}

(* The [`Absorb] path: apply the input change only, skipping the update
   block — exactly the runner's default maintenance, for every member of
   a certified group at once. The Defchange analyzer model-checks THIS
   function against the singleton fold per (program, op); keeping it a
   first-class export means the verified law and the exploited code path
   cannot drift apart. *)
let absorb_apply st = function
  | Request.Ins (name, tup) -> Structure.add_tuple st name tup
  | Request.Del (name, tup) -> Structure.del_tuple st name tup
  | Request.Set (name, v) -> Structure.with_const st name v
  | (Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
    | Request.Del_def _) as r ->
      invalid_arg
        (Printf.sprintf "Runner.absorb_group: unexpanded set request %s"
           (Request.to_string r))

let absorb_group s group =
  { s with structure = List.fold_left absorb_apply s.structure group }

(* One evaluation tick over an explicit request list: the serving
   layer's coalescing unit. Semantically the sequential composition of
   the singleton steps — the qcheck oracle asserts state equality
   against {!run} on every registry program and backend — with the
   per-request overheads amortised batch-wide: validation happens once
   up front (which also makes the batch atomic: an invalid member
   rejects it before anything runs), [`Auto] resolves once, and the
   delta backend's memoized rule testers ([Delta_eval]) are compiled at
   most once under the batch's first step.

   With a commute oracle installed the batch is first reordered into
   same-operation groups (sound by the oracle's pairwise swap verdicts),
   so the delta backend performs one block-plan lookup per group instead
   of per request; and requests that do not change the input (insert of
   a present tuple, delete of an absent one, set to the current value)
   are skipped entirely for ops whose no-op law the oracle verified.

   With a defchange oracle installed each group is additionally
   evaluated per its verified (kind, relation) verdict: [`Absorb]
   applies the input changes only ([absorb_group]); [`Stream] folds the
   group under one [Delta_eval] batch scope so the delta backend
   accumulates a single dirty mask for the whole group; [`Fold] (and
   any op the analyzer could not certify) takes the unchanged singleton
   fold. Set requests ([Request.Ins_set] etc.) are expanded against the
   tick's pre-state first — the "definable changes" simultaneous
   reading — and their singletons planned like any others. *)
let step_batch_info ?(backend = `Tuple) ?oracle ?defchange s reqs =
  (* a batch is one atomic tick: drain any in-flight rebuild first so
     the tick's pre-state (which set requests expand against) is the
     fully caught-up one *)
  let s = await_muddle s in
  List.iter (validate_request ~who:"Runner.step_batch" s) reqs;
  let backend = resolve_backend s.program backend in
  let oracle =
    match oracle with Some o -> o | None -> !commute_oracle_ref s.program
  in
  let verdict =
    match defchange with
    | Some f -> f
    | None -> !defchange_oracle_ref s.program
  in
  let reqs = Request.expand_batch s.structure reqs in
  let groups = plan_groups_with oracle.co_swap reqs in
  (* one batch scope per tick: every [`Stream] group joins it, so rule
     states shared across groups keep accumulating instead of clearing *)
  let tick = Delta_eval.new_batch () in
  let step_group (s, info) group =
    let kind, rel = op_key (List.hd group) in
    match verdict kind rel with
    | `Absorb ->
        ( absorb_group s group,
          { info with bi_absorbed = info.bi_absorbed + List.length group } )
    | (`Stream | `Fold) as v ->
        let batch =
          if v = `Stream && backend = `Delta then Some tick else None
        in
        let rules_define =
          match backend with
          | (`Tuple | `Bulk) as b -> rules_define_for b
          | `Delta ->
              let plan, block = delta_block_for s.program (List.hd group) in
              delta_rules_define ?batch plan block
        in
        let info =
          if batch = None then info
          else
            { info with bi_streamed = info.bi_streamed + List.length group }
        in
        List.fold_left
          (fun (s, info) req ->
            if oracle.co_elidable req && redundant s.structure req then
              (s, { info with bi_elided = info.bi_elided + 1 })
            else (step_with_unchecked ~rules_define s req, info))
          (s, info) group
  in
  let s, info =
    List.fold_left step_group
      (s, { bi_groups = 0; bi_elided = 0; bi_absorbed = 0; bi_streamed = 0 })
      groups
  in
  (s, { info with bi_groups = List.length groups })

let step_batch ?backend ?oracle ?defchange s reqs =
  fst (step_batch_info ?backend ?oracle ?defchange s reqs)

let restore (p : Program.t) st =
  (* the snapshot must expose the whole combined vocabulary, exactly as
     [init]'s output does *)
  ignore (Structure.restrict st (Program.vocab p));
  (* the delta evaluator's process-wide frontier state is left alone:
     reuse is sound (state is validated per step), and the model
     checkers restore ~10^5 times per program, which must not flush
     every live session's warm caches. The serving daemon's [restore]
     verb is the lifecycle boundary that drops them. *)
  { program = p; structure = st; muddle = None }

(* Queries have no frame (there is no previous value of a sentence to be
   incremental against), so [`Delta] queries evaluate in full on the
   plan's fallback — through the query plan's cached tester when the
   plan has one for this formula. *)
let holds_with backend p rp st ~env f =
  let full = function
    | `Tuple -> Eval.holds st ~env f
    | `Bulk -> Bulk_eval.holds st ~env f
  in
  match resolve_backend p backend with
  | (`Tuple | `Bulk) as b -> full b
  | `Delta -> (
      let plan = !delta_planner p in
      let fallback = plan.Delta_eval.pp_fallback in
      match rp plan with
      | Some rp when Delta_eval.plan_matches rp ~vars:[] f ->
          Delta_eval.holds ~fallback st ~env rp
      | _ -> full fallback)

let query ?(backend = `Tuple) s =
  holds_with backend s.program
    (fun plan -> plan.Delta_eval.pp_query)
    s.structure ~env:[] s.program.query

let query_named ?(backend = `Tuple) s name args =
  match
    List.find_opt (fun (n, _, _) -> n = name) s.program.queries
  with
  | None -> raise Not_found
  | Some (_, vars, body) ->
      if List.length vars <> List.length args then
        invalid_arg "Runner.query_named: arity mismatch";
      holds_with backend s.program
        (fun plan -> List.assoc_opt name plan.Delta_eval.pp_queries)
        s.structure ~env:(List.combine vars args) body

let step_work ?backend s req = Eval.with_work (fun () -> step ?backend s req)

let step_batch_work ?backend s reqs =
  Eval.with_work (fun () -> step_batch ?backend s reqs)

let step_batch_full ?backend ?oracle ?defchange s reqs =
  let (s, info), w =
    Eval.with_work (fun () -> step_batch_info ?backend ?oracle ?defchange s reqs)
  in
  (s, w, info)

let run_work ?backend s reqs =
  let s, rev =
    List.fold_left
      (fun (s, acc) req ->
        let s, w = step_work ?backend s req in
        (s, w :: acc))
      (s, []) reqs
  in
  (s, List.rev rev)

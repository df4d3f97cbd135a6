open Dynfo_logic
open Dynfo

type state = {
  pool : Pool.t;
  cutoff : int;
  backend : [ `Tuple | `Bulk | `Delta ];  (* [`Auto] resolved at [init] *)
  inner : Runner.state;
}

let init pool ?(cutoff = Par_eval.default_cutoff) ?(backend = `Tuple) p ~size
    =
  let backend = Runner.resolve_backend p backend in
  { pool; cutoff; backend; inner = Runner.init p ~size }

let wrap pool ?(cutoff = Par_eval.default_cutoff) ?(backend = `Tuple) inner =
  let backend = Runner.resolve_backend (Runner.program inner) backend in
  { pool; cutoff; backend; inner }

let inner s = s.inner

let structure s = Runner.structure s.inner
let input s = Runner.input s.inner
let program s = Runner.program s.inner
let pool s = s.pool
let backend s = s.backend

(* The simultaneous rule block, tuple backend. Two regimes:
   - at least one rule has a tuple space worth fanning out: parallelise
     within each rule (tuples), sequential across rules;
   - every rule is tiny but there are several: hand whole rules to lanes
     (each evaluated by the lane-local sequential evaluator). *)
let tuple_rules_define pool cutoff st ~env rules =
  let n = Structure.size st in
  let space (r : Program.rule) =
    Par_eval.tuple_space ~size:n ~arity:(List.length r.vars)
  in
  let all_small = List.for_all (fun r -> space r < cutoff) rules in
  if Pool.lanes pool > 1 && all_small && List.length rules > 1 then begin
    let arr = Array.of_list rules in
    let out = Array.make (Array.length arr) None in
    Pool.parallel_for pool ~chunk:1 ~lo:0 ~hi:(Array.length arr)
      (fun ~lane:_ l r ->
        for i = l to r - 1 do
          let (rule : Program.rule) = arr.(i) in
          out.(i) <-
            Some (rule.target, Eval.define st ~vars:rule.vars ~env rule.body)
        done);
    Array.to_list out |> List.map Option.get
  end
  else
    List.map
      (fun (r : Program.rule) ->
        (r.target, Par_eval.define pool ~cutoff st ~vars:r.vars ~env r.body))
      rules

(* Bulk backend: rules in order, parallelism inside each rule's word
   kernels. Never fan rules out across lanes here — Par_bulk submits
   pool jobs itself and the pool is not reentrant. *)
let bulk_rules_define pool cutoff st ~env rules =
  List.map
    (fun (r : Program.rule) ->
      (r.target, Par_bulk.define pool ~cutoff st ~vars:r.vars ~env r.body))
    rules

let rules_define backend pool cutoff =
  match backend with
  | `Tuple -> tuple_rules_define pool cutoff
  | `Bulk -> bulk_rules_define pool cutoff

(* Delta backend: rules in order (Par_delta submits pool jobs itself),
   each rule's frontier chunked by mask words. Plan entries are
   validated against the rule before use — exactly as the sequential
   runner does — so stale or mismatched plans degrade to a full
   parallel recompute on the plan's fallback backend, never to a wrong
   answer. *)
let delta_rules_define pool cutoff ?batch (plan : Delta_eval.program_plan)
    block st ~env rules =
  let fallback = plan.Delta_eval.pp_fallback in
  List.map
    (fun (r : Program.rule) ->
      match Runner.rule_plan block r with
      | Some rp ->
          (r.target, Par_delta.define pool ~cutoff ?batch st ~env ~fallback rp)
      | None ->
          let rel =
            match fallback with
            | `Tuple -> Par_eval.define pool ~cutoff st ~vars:r.vars ~env r.body
            | `Bulk -> Par_bulk.define pool ~cutoff st ~vars:r.vars ~env r.body
          in
          (r.target, rel))
    rules

let step_scoped ?batch s req =
  let rules_define =
    match s.backend with
    | (`Tuple | `Bulk) as b -> rules_define b s.pool s.cutoff
    | `Delta ->
        let plan, block = Runner.delta_block_for (Runner.program s.inner) req in
        delta_rules_define s.pool s.cutoff ?batch plan block
  in
  { s with inner = Runner.step_with ~rules_define s.inner req }

let step s req = step_scoped s req

let run s reqs = List.fold_left step s reqs

(* Batch = one evaluation tick, with the same atomicity contract as
   [Runner.step_batch]: all requests validated before anything runs. Set
   requests expand against the tick's pre-state, and each commute-planned
   group is evaluated per its Defchange verdict, mirroring the sequential
   runner: [`Absorb] groups apply input changes only; [`Stream] groups on
   the delta backend fold under one batch scope, so [Par_delta] fans the
   accumulated union mask across lanes; everything else folds singleton
   steps unchanged. *)
let step_batch s reqs =
  let p = Runner.program s.inner in
  let size = Structure.size (Runner.structure s.inner) in
  List.iter
    (fun req ->
      if not (Request.valid p.input_vocab ~size req) then
        invalid_arg
          (Printf.sprintf
             "Par_runner.step_batch: invalid request %s for program %s"
             (Request.to_string req) p.name))
    reqs;
  let reqs = Request.expand_batch (Runner.structure s.inner) reqs in
  let groups = Runner.plan_groups p reqs in
  let tick = Delta_eval.new_batch () in
  let step_group s group =
    let kind, rel = Runner.op_key (List.hd group) in
    match Runner.defchange_verdict p kind rel with
    | `Absorb -> { s with inner = Runner.absorb_group s.inner group }
    | (`Stream | `Fold) as v ->
        let batch =
          if v = `Stream && s.backend = `Delta then Some tick else None
        in
        List.fold_left (fun s req -> step_scoped ?batch s req) s group
  in
  List.fold_left step_group s groups

let query_fallback s =
  match s.backend with
  | (`Tuple | `Bulk) as b -> b
  | `Delta ->
      (* queries have no frame (nothing is incrementally maintained for
         them); evaluate on the plan's full-recompute backend *)
      (Runner.delta_plan (Runner.program s.inner)).Delta_eval.pp_fallback

let query s =
  match query_fallback s with
  | `Tuple -> Runner.query s.inner
  | `Bulk ->
      Par_bulk.holds s.pool (Runner.structure s.inner)
        (Runner.program s.inner).query

let query_named s name args =
  Runner.query_named ~backend:(s.backend :> Runner.backend) s.inner name args

let step_work s req = Eval.with_work (fun () -> step s req)

let dyn pool ?cutoff ?(backend = `Tuple) (p : Program.t) =
  let suffix =
    match backend with
    | `Tuple -> "[par]"
    | `Bulk -> "[par-bulk]"
    | `Delta -> "[par-delta]"
    | `Auto -> (
        match Runner.resolve_backend p backend with
        | `Tuple -> "[par-auto:tuple]"
        | `Bulk -> "[par-auto:bulk]"
        | `Delta -> "[par-auto:delta]")
  in
  Dyn.of_fun ~name:(p.name ^ suffix)
    ~create:(fun size -> init pool ?cutoff ~backend p ~size)
    ~apply:step ~query

open Dynfo_logic
open Dynfo
module Par_runner = Dynfo_engine.Par_runner

(* One live session: a runner instance plus a FIFO job queue drained by
   the submitting threads themselves (see [call]). The drain coalesces
   every run of consecutive update jobs into a single [Runner.step_batch]
   tick, which is where the serving layer's batching win comes from — a
   burst of clients pays for one validation pass, one [`Auto] resolution
   and one round of delta tester rebinds instead of one each. A
   connection handles its own commands one at a time, so coalescing
   only ever happens across connections.

   In the default [`Commute] coalescing mode the drain additionally
   consults the model-checked commute oracle ([Dynfo_analysis.Commute]
   installs it; the conservative null oracle makes every decision below
   a no-op): an update job may overtake pending queries when every one
   of its requests is verified invisible to every pending query's
   formula, so non-adjacent update jobs still merge into one tick;
   back-to-back identical requests of verified-idempotent ops are
   deduplicated before stepping; and the tick itself runs under the
   oracle ([Runner.step_batch]'s planner groups commuting requests and
   elides verified no-ops). Submitters are always answered
   individually, with their original request counts. [`Fifo] restores
   the strictly order-preserving drain (and passes the null oracle to
   the runner) — the measurable baseline for bench E24. *)

(* The PR-1 domain pool is not reentrant and must be driven by one
   caller at a time, but all [`Par] sessions of a server share one
   pool — so every call into [Par_runner] anywhere in the process takes
   this lock. Sequential sessions never touch it. *)
let par_lock = Mutex.create ()

type runner = Seq of Runner.state | Par of Par_runner.state

type stats = {
  st_steps : int;  (** singleton requests applied *)
  st_ticks : int;  (** evaluation ticks (a batch is one tick) *)
  st_coalesced : int;  (** update jobs merged into another job's tick *)
  st_work : int;  (** cumulative work charge over all ticks *)
  st_queries : int;
  st_groups : int;  (** commute-planner groups across all ticks *)
  st_elided : int;  (** requests skipped by the verified no-op law *)
  st_absorbed : int;  (** requests applied input-only (Defchange [`Absorb]) *)
  st_streamed : int;  (** requests folded under one delta batch scope *)
  st_deduped : int;  (** identical back-to-back requests collapsed *)
  st_hoisted : int;  (** update jobs that overtook pending queries *)
}

type job =
  | J_update of Request.t list * ((int * int, exn) result -> unit)
  | J_query of string option * int list * ((bool, exn) result -> unit)
  | J_snapshot of string * ((int, exn) result -> unit)

type t = {
  id : string;
  name : string;  (* the external (registry) name the program was found by *)
  program : Program.t;
  backend : Runner.backend;  (* as requested, e.g. [`Auto] *)
  resolved : [ `Tuple | `Bulk | `Delta ];
  engine : [ `Seq | `Par ];
  coalesce : [ `Fifo | `Commute ];
  lock : Mutex.t;
  cond : Condition.t;
  mutable queue : job list;  (* newest first; the leader reverses *)
  mutable busy : bool;  (* a slice is being drained *)
  mutable closing : bool;
  mutable runner : runner;
  mutable steps : int;
  mutable ticks : int;
  mutable coalesced : int;
  mutable work : int;
  mutable queries : int;
  mutable groups : int;
  mutable elided : int;
  mutable absorbed : int;
  mutable streamed : int;
  mutable deduped : int;
  mutable hoisted : int;
}

let id t = t.id
let program t = t.program
let name t = t.name
let backend t = t.backend
let resolved t = t.resolved
let engine t = t.engine
let coalesce t = t.coalesce

let inner_state t =
  match t.runner with Seq s -> s | Par s -> Par_runner.inner s

let structure t = Mutex.protect t.lock (fun () -> Runner.structure (inner_state t))

let size t = Structure.size (structure t)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        st_steps = t.steps;
        st_ticks = t.ticks;
        st_coalesced = t.coalesced;
        st_work = t.work;
        st_queries = t.queries;
        st_groups = t.groups;
        st_elided = t.elided;
        st_absorbed = t.absorbed;
        st_streamed = t.streamed;
        st_deduped = t.deduped;
        st_hoisted = t.hoisted;
      })

(* --- the drain ------------------------------------------------------------- *)

let apply_tick t reqs =
  let backend = (t.resolved :> Runner.backend) in
  match t.runner with
  | Seq s ->
      let oracle =
        match t.coalesce with
        | `Commute -> None (* the installed oracle *)
        | `Fifo -> Some Runner.null_oracle
      in
      let s, w, info = Runner.step_batch_full ~backend ?oracle s reqs in
      (Seq s, w, info)
  | Par s ->
      Mutex.protect par_lock (fun () ->
          let s, w = Eval.with_work (fun () -> Par_runner.step_batch s reqs) in
          ( Par s,
            w,
            {
              Runner.bi_groups = 0;
              bi_elided = 0;
              bi_absorbed = 0;
              bi_streamed = 0;
            } ))

let run_query t name args =
  match t.runner with
  | Seq s -> (
      let backend = (t.resolved :> Runner.backend) in
      match name with
      | None -> Runner.query ~backend s
      | Some n -> Runner.query_named ~backend s n args)
  | Par s ->
      Mutex.protect par_lock (fun () ->
          match name with
          | None -> Par_runner.query s
          | Some n -> Par_runner.query_named s n args)

(* A maximal run of leading update jobs, validated per job: invalid
   jobs are answered with their error immediately and contribute
   nothing; the valid remainder forms one batch. *)
let rec split_updates acc = function
  | J_update (reqs, reply) :: rest -> split_updates ((reqs, reply) :: acc) rest
  | rest -> (List.rev acc, rest)

(* Collapse back-to-back identical requests of verified-idempotent ops:
   [r; r ≡ r] by the oracle's law, so the second frontier evaluation is
   pure waste. Only adjacent equal requests are touched — anything
   subtler is the batch planner's job. *)
let dedupe oracle batch =
  let rec go kept dropped = function
    | [] -> (List.rev kept, dropped)
    | r :: rest -> (
        match kept with
        | prev :: _ when r = prev && oracle.Runner.co_dedupe r ->
            go kept (dropped + 1) rest
        | _ -> go (r :: kept) dropped rest)
  in
  go [] 0 batch

let process_updates t updates =
  let p = t.program in
  let size = Structure.size (Runner.structure (inner_state t)) in
  let valid, invalid =
    List.partition
      (fun (reqs, _) -> Request.valid_batch p.input_vocab ~size reqs)
      updates
  in
  List.iter
    (fun (reqs, reply) ->
      reply
        (Error
           (Invalid_argument
              (Printf.sprintf "invalid request in batch [%s] for program %s"
                 (Request.batch_to_string reqs) p.name))))
    invalid;
  match valid with
  | [] -> ()
  | _ -> (
      let submitted = List.concat_map fst valid in
      let batch, dropped =
        match t.coalesce with
        | `Commute -> dedupe (Runner.commute_oracle p) submitted
        | `Fifo -> (submitted, 0)
      in
      match apply_tick t batch with
      | runner, w, info ->
          Mutex.protect t.lock (fun () ->
              t.runner <- runner;
              t.steps <- t.steps + List.length submitted;
              t.ticks <- t.ticks + 1;
              t.coalesced <- t.coalesced + List.length valid - 1;
              t.work <- t.work + w;
              t.groups <- t.groups + info.Runner.bi_groups;
              t.elided <- t.elided + info.Runner.bi_elided;
              t.absorbed <- t.absorbed + info.Runner.bi_absorbed;
              t.streamed <- t.streamed + info.Runner.bi_streamed;
              t.deduped <- t.deduped + dropped);
          List.iter
            (fun (reqs, reply) -> reply (Ok (List.length reqs, w)))
            valid
      | exception e -> List.iter (fun (_, reply) -> reply (Error e)) valid)

let process_job t = function
  | J_update _ -> assert false (* handled by [process_updates] *)
  | J_query (name, args, reply) -> (
      match run_query t name args with
      | r ->
          Mutex.protect t.lock (fun () -> t.queries <- t.queries + 1);
          reply (Ok r)
      | exception e -> reply (Error e))
  | J_snapshot (path, reply) -> (
      let st = Runner.structure (inner_state t) in
      let steps = Mutex.protect t.lock (fun () -> t.steps) in
      match Snapshot.save ~path ~program:t.name ~steps st with
      | bytes -> reply (Ok bytes)
      | exception e -> reply (Error e))

let rec process_fifo t jobs =
  match jobs with
  | [] -> ()
  | J_update _ :: _ ->
      let updates, rest = split_updates [] jobs in
      process_updates t updates;
      process_fifo t rest
  | job :: rest ->
      process_job t job;
      process_fifo t rest

(* The commute-aware drain. Updates accumulate across the whole drained
   queue slice: an update may overtake the queries queued before it when
   every request is verified invisible to every pending query (the
   answers are then unchanged by construction — see DESIGN S25), so
   non-adjacent update jobs still coalesce into one tick. A
   non-hoistable update, or a snapshot (a barrier: it must observe
   exactly the prefix's effects), flushes the accumulated tick and
   answers the pending queries in order. *)
let process_commute t jobs =
  let oracle = Runner.commute_oracle t.program in
  let size = Structure.size (Runner.structure (inner_state t)) in
  let acc = ref [] (* update jobs, newest first *) in
  let pending = ref [] (* query jobs, newest first *) in
  let hoisted = ref 0 in
  let flush () =
    if !acc <> [] then process_updates t (List.rev !acc);
    acc := [];
    List.iter (process_job t) (List.rev !pending);
    pending := []
  in
  List.iter
    (fun job ->
      match job with
      | J_update (reqs, reply) ->
          if !pending = [] then acc := (reqs, reply) :: !acc
          else if
            Request.valid_batch t.program.input_vocab ~size reqs
            && List.for_all
                 (fun r ->
                   List.for_all
                     (function
                       | J_query (name, _, _) -> oracle.Runner.co_invisible r name
                       | _ -> false)
                     !pending)
                 reqs
          then begin
            incr hoisted;
            acc := (reqs, reply) :: !acc
          end
          else begin
            flush ();
            acc := [ (reqs, reply) ]
          end
      | J_query _ -> pending := job :: !pending
      | J_snapshot _ ->
          flush ();
          process_job t job)
    jobs;
  flush ();
  if !hoisted > 0 then
    Mutex.protect t.lock (fun () -> t.hoisted <- t.hoisted + !hoisted)

let process t jobs =
  match t.coalesce with
  | `Fifo -> process_fifo t jobs
  | `Commute -> process_commute t jobs

(* --- construction ---------------------------------------------------------- *)

let make ~id ~name ?pool ~backend ~coalesce (p : Program.t) runner_of =
  let resolved = Runner.resolve_backend p backend in
  let engine, runner = runner_of ~resolved pool in
  (* warm the oracles (and their model-checked matrices) before
     serving: the analyses run once per program, not under the first
     client's call. [`Fifo] ticks pass the null commute oracle but still
     dispatch on the installed Defchange oracle, so both modes warm it;
     any op hits the whole Defchange matrix. *)
  if coalesce = `Commute then ignore (Runner.commute_oracle p);
  (match Vocab.relations p.input_vocab with
  | (s : Vocab.sym) :: _ -> ignore (Runner.defchange_verdict p `Ins s.name)
  | [] -> (
      match Vocab.constants p.input_vocab with
      | c :: _ -> ignore (Runner.defchange_verdict p `Set c)
      | [] -> ()));
  {
    id;
    name;
    program = p;
    backend;
    resolved;
    engine;
    coalesce;
    lock = Mutex.create ();
    cond = Condition.create ();
    queue = [];
    busy = false;
    closing = false;
    runner;
    steps = 0;
    ticks = 0;
    coalesced = 0;
    work = 0;
    queries = 0;
    groups = 0;
    elided = 0;
    absorbed = 0;
    streamed = 0;
    deduped = 0;
    hoisted = 0;
  }

let create ~id ~name ?pool ~backend ?(coalesce = `Commute) (p : Program.t)
    ~size =
  make ~id ~name ?pool ~backend ~coalesce p (fun ~resolved pool ->
      match pool with
      | None -> (`Seq, Seq (Runner.init p ~size))
      | Some pool ->
          ( `Par,
            Par
              (Par_runner.init pool ~backend:(resolved :> Runner.backend) p
                 ~size) ))

let of_state ~id ~name ?pool ~backend ?(coalesce = `Commute) ~steps inner =
  let t =
    make ~id ~name ?pool ~backend ~coalesce (Runner.program inner)
      (fun ~resolved pool ->
        match pool with
        | None -> (`Seq, Seq inner)
        | Some pool ->
            ( `Par,
              Par
                (Par_runner.wrap pool ~backend:(resolved :> Runner.backend)
                   inner) ))
  in
  t.steps <- steps;
  t

(* --- submission ------------------------------------------------------------ *)

let fail e = function
  | J_update (_, reply) -> reply (Error e)
  | J_query (_, _, reply) -> reply (Error e)
  | J_snapshot (_, reply) -> reply (Error e)

(* Called with [t.lock] held and the session idle; returns with it
   released. Drains one slice: whatever [process] leaves unanswered
   when it raises gets the exception, so the lead is always released
   and the session never wedges. *)
let lead t =
  t.busy <- true;
  let jobs = List.rev t.queue in
  t.queue <- [];
  Mutex.unlock t.lock;
  (try process t jobs with e -> List.iter (fail e) jobs);
  Mutex.protect t.lock (fun () ->
      t.busy <- false;
      Condition.broadcast t.cond)

(* The caller-runs drain. A thread that submits to an idle session
   leads: it takes the whole queue (its own job included) as one slice.
   A thread that submits during a slice waits until its job is answered
   there, or until the lead is released with its job still queued — it
   then leads the next slice, holding every job that arrived meanwhile,
   so a caller waits behind at most one slice of others' work. Replies
   are write-once (the exception sweep in [lead] cannot overwrite an
   answer) and are read under [t.lock] after the writing slice ends. *)
let call t job_of =
  let slot = ref None in
  let job = job_of (fun r -> if Option.is_none !slot then slot := Some r) in
  Mutex.lock t.lock;
  if t.closing then begin
    Mutex.unlock t.lock;
    invalid_arg (Printf.sprintf "Session.submit: session %s is closed" t.id)
  end;
  t.queue <- job :: t.queue;
  while Option.is_none !slot && t.busy do
    Condition.wait t.cond t.lock
  done;
  (* unanswered and idle: the job is still queued, so take the lead *)
  if Option.is_none !slot then lead t else Mutex.unlock t.lock;
  match Option.get !slot with Ok v -> v | Error e -> raise e

let update t reqs = call t (fun reply -> J_update (reqs, reply))
let query t ?name args = call t (fun reply -> J_query (name, args, reply))
let snapshot t ~path = call t (fun reply -> J_snapshot (path, reply))

let close t =
  Mutex.protect t.lock (fun () ->
      t.closing <- true;
      while t.busy || t.queue <> [] do
        Condition.wait t.cond t.lock
      done)

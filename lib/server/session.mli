(** One live serving session: a runner instance and a FIFO job queue.

    Connection threads never touch the runner directly — they submit
    jobs (updates, queries, snapshots) to the session's queue and block
    until answered. The session has no thread of its own: the submitting
    threads drain the queue themselves. A caller that finds the session
    idle {e leads}: it takes the whole queue, its own job included, and
    drains that one slice. A caller that submits during a slice waits
    until its job is answered, or until the lead is released with its
    job still queued — it then leads the next slice, which holds every
    job that arrived meanwhile. So a caller waits behind at most one
    slice of others' work. The drain answers jobs in order and {e
    coalesces every run of consecutive update jobs into a single batch}
    applied as one [Dynfo.Runner.step_batch] evaluation tick. Under
    concurrent load this is the batching win: a burst of clients pays
    one validation pass, one [`Auto] resolution and one round of delta
    tester rebinds instead of one each — while FIFO order keeps the
    semantics exactly those of the singleton sequence (a query submitted
    after an update observes it). A connection handles its own commands
    one at a time, so coalescing only happens across connections.

    Sessions evaluate on the sequential runner by default; pass [?pool]
    to run on the parallel engine instead. The pool is shared by all
    parallel sessions of a server and is {e not} reentrant, so every
    call into [Dynfo_engine.Par_runner] process-wide is serialized
    under one internal lock. *)

open Dynfo_logic
open Dynfo

type t

type stats = {
  st_steps : int;  (** singleton requests applied *)
  st_ticks : int;  (** evaluation ticks (a coalesced batch is one) *)
  st_coalesced : int;  (** update jobs that rode along in another's tick *)
  st_work : int;  (** cumulative work charge over all ticks *)
  st_queries : int;
  st_groups : int;  (** commute-planner groups across all ticks *)
  st_elided : int;  (** requests skipped by the verified no-op law *)
  st_absorbed : int;
      (** requests applied input-only — whole groups absorbed in one
          tick under a Defchange [`Absorb] verdict *)
  st_streamed : int;
      (** requests folded under one delta batch scope (Defchange
          [`Stream] groups on the delta backend) *)
  st_deduped : int;  (** identical back-to-back requests collapsed *)
  st_hoisted : int;  (** update jobs that overtook pending queries *)
}

val create :
  id:string ->
  name:string ->
  ?pool:Dynfo_engine.Pool.t ->
  backend:Runner.backend ->
  ?coalesce:[ `Fifo | `Commute ] ->
  Program.t ->
  size:int ->
  t
(** Fresh session over [f_n(empty)]; creates no thread. [name]
    is the external (registry) name the program was found by — it is
    what snapshots record, so a restore can find the program again.
    [coalesce] (default [`Commute]) selects the drain mode; [`Commute]
    warms the program's commutativity matrix before serving. *)

val of_state :
  id:string ->
  name:string ->
  ?pool:Dynfo_engine.Pool.t ->
  backend:Runner.backend ->
  ?coalesce:[ `Fifo | `Commute ] ->
  steps:int ->
  Runner.state ->
  t
(** Adopt a restored runner state (snapshot restore path); [steps]
    seeds the request counter with the snapshot's. *)

val id : t -> string
val name : t -> string
(** The external program name (see {!create}). *)

val program : t -> Program.t
val size : t -> int
val backend : t -> Runner.backend
(** The backend as requested (possibly [`Auto]). *)

val resolved : t -> [ `Tuple | `Bulk | `Delta ]
(** What [`Auto] resolved to at session creation. *)

val engine : t -> [ `Seq | `Par ]

val coalesce : t -> [ `Fifo | `Commute ]
(** The drain mode the session was created with. *)

val structure : t -> Structure.t
(** The combined structure as of the last completed tick. *)

val update : t -> Request.t list -> int * int
(** Enqueue a batch and wait for its tick; returns
    [(applied, tick_work)] where [applied] is this call's request count
    and [tick_work] the work charge of the {e whole} tick it ran in
    (which may have included coalesced neighbours). An invalid request
    rejects this call's batch atomically ([Invalid_argument]) without
    disturbing coalesced neighbours. *)

val query : t -> ?name:string -> int list -> bool
(** The program query ([?name] absent) or a named parameterised query.
    Runs at a tick boundary, after every previously submitted update. *)

val snapshot : t -> path:string -> int
(** Serialize the session at a tick boundary ({!Snapshot.save});
    returns the byte size written. *)

val stats : t -> stats

val close : t -> unit
(** Refuse further submissions ([Invalid_argument]) and wait until every
    job already submitted has been answered and no slice is running.
    Idempotent. *)

open Dynfo

(* Double-checked: a finished lookup reads two atomics and takes no
   lock, so the serving hot path (the runner asks the oracles on every
   batch) never contends; the locks only order first computations. *)
type 'a cell = { c_lock : Mutex.t; c_value : 'a option Atomic.t }

type 'a t = {
  lock : Mutex.t;
  limit : int;
  compute : Program.t -> 'a;
  cells : (Program.t * 'a cell) list Atomic.t;  (* newest first *)
}

let create ~limit compute =
  { lock = Mutex.create (); limit; compute; cells = Atomic.make [] }

let cell_of t p =
  match List.assq_opt p (Atomic.get t.cells) with
  | Some c -> c
  | None ->
      Mutex.protect t.lock (fun () ->
          let cells = Atomic.get t.cells in
          match List.assq_opt p cells with
          | Some c -> c
          | None ->
              let c = { c_lock = Mutex.create (); c_value = Atomic.make None } in
              Atomic.set t.cells
                ((p, c) :: List.filteri (fun i _ -> i < t.limit - 1) cells);
              c)

let find t p =
  let c = cell_of t p in
  match Atomic.get c.c_value with
  | Some v -> v
  | None ->
      Mutex.protect c.c_lock (fun () ->
          match Atomic.get c.c_value with
          | Some v -> v
          | None ->
              let v = t.compute p in
              Atomic.set c.c_value (Some v);
              v)

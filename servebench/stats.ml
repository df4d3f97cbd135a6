(* Clock and sample statistics shared by the served and traced phases. *)

let now_ns () = Monotonic_clock.now ()
let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3
let s_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* A growable buffer of float samples. *)
type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let count b = b.n

let sorted b =
  let s = Array.sub b.a 0 b.n in
  Array.sort compare s;
  s

(* Nearest-rank percentile of a sorted array; nan when empty. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let i = int_of_float (ceil (p /. 100. *. float n)) - 1 in
    s.(max 0 (min (n - 1) i))

let median_of l =
  let s = Array.of_list l in
  Array.sort compare s;
  percentile s 50.

(* A reported tail percentile must leave at least [min_beyond] samples
   above it, so p99 needs 1000 samples. *)
let min_beyond = 10

let tail_ok ~count p = float count *. (1. -. (p /. 100.)) >= float min_beyond

(* A series: samples each with the time it completed, in seconds from
   the start of its phase. *)
type series = { at : buf; x : buf }

let series () = { at = buf (); x = buf () }

let record s ~at x =
  push s.at at;
  push s.x x

(* The host is shared: another tenant on the same core slows whatever
   runs beside it by up to twice, switching on and off every few
   milliseconds, and takes a different share of the time in every run.
   So the timing metrics are taken from the run's quiet stretches: the
   phase is cut into [window_s] windows, the windows are ranked by the
   median of a reference series within each, lowest first, and taken
   until they hold [quiet_share] of its samples. A window with no
   reference sample in it is never quiet. *)
let window_s = 0.002
let quiet_share = 0.1

type quiet = { inside : bool array; w : float; taken : int }

let window_of ~k ~w t = max 0 (min (k - 1) (int_of_float (t /. w)))

let quiet ~total_s (r : series) =
  let k = max 1 (int_of_float (total_s /. window_s)) in
  let w = total_s /. float k in
  let per = Array.make k [] in
  for j = r.x.n - 1 downto 0 do
    let i = window_of ~k ~w r.at.a.(j) in
    per.(i) <- r.x.a.(j) :: per.(i)
  done;
  let ranked =
    List.sort compare
      (List.filter_map
         (fun i ->
           match per.(i) with
           | [] -> None
           | l -> Some (median_of l, i, List.length l))
         (List.init k Fun.id))
  in
  let want = int_of_float (ceil (quiet_share *. float r.x.n)) in
  let inside = Array.make k false in
  let rec take held taken = function
    | (_, i, c) :: rest when held < want ->
        inside.(i) <- true;
        take (held + c) (taken + 1) rest
    | _ -> taken
  in
  let taken = take 0 0 ranked in
  { inside; w; taken }

let windows q = Array.length q.inside
let quiet_s q = float q.taken *. q.w
let is_quiet q t = q.inside.(window_of ~k:(windows q) ~w:q.w t)

(* The samples of [s] completed in quiet windows, sorted. *)
let quiet_sorted q s =
  let b = buf () in
  for j = 0 to s.x.n - 1 do
    if is_quiet q s.at.a.(j) then push b s.x.a.(j)
  done;
  sorted b

(* The sum of [b], a buffer aligned with [at], over the quiet windows. *)
let quiet_sum q ~at b =
  let sum = ref 0. in
  for j = 0 to b.n - 1 do
    if is_quiet q at.a.(j) then sum := !sum +. b.a.(j)
  done;
  !sum

(** A bounded, thread-safe memo of a per-program analysis, keyed on
    physical program identity.

    Each program gets a once-cell: the table's lock only guards finding
    or adding the cell, and the cell's own lock guards the computation.
    So a cold analysis of one program (seconds for the larger ones)
    never blocks a lookup of another program's finished result, while
    concurrent first lookups of the same program still compute once. A
    computation that raises leaves its cell empty for the next caller
    to retry. *)

open Dynfo

type 'a t

val create : limit:int -> (Program.t -> 'a) -> 'a t
(** At most [limit] programs are kept; the oldest cell is evicted
    first. *)

val find : 'a t -> Program.t -> 'a

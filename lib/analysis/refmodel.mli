(** The model checkers' reference semantics, memoized.

    Commute and Defchange judge every law against the same reference:
    the tuple-backend singleton step ([Runner.step ~backend:`Tuple]).
    At the checkers' universe sizes that step is a pure function of a
    small structure and a request, and the checks revisit the same few
    thousand (state, request) pairs hundreds of thousands of times. A
    {!t} codes each structure over the program's combined vocabulary as
    one int — one bit per possible tuple of every relation (an arity-0
    relation gets one bit), followed by the constants in base [size] —
    and keeps a fixed-size direct-mapped transition table from
    (state code, size, request code) to the successor's code. A miss
    decodes the state and runs the real step.

    Only the reference is memoized: the code paths under test
    (absorption, batch ticks on every backend, set-request expansion)
    still run on every check, and are compared against a reference
    state with {!matches}. Sizes or vocabularies whose code would not
    fit 40 bits have no coder; their states stay plain structures
    and step directly, exactly as without memoization.

    A table is a value owned by one analysis run — there is no
    process-global state here, so concurrent analyses cannot observe
    each other's entries. *)

open Dynfo_logic
open Dynfo

type t

val pow : int -> int -> int
(** [pow b e] is [b^e] — the size of an arity-[e] tuple space. *)

val decode_tuple : size:int -> arity:int -> int -> Tuple.t
(** The tuple with little-endian base-[size] index [idx] (component 0
    least significant): the order in which the model checkers enumerate
    argument tuples and structures, and the bit order of a code. *)

val create : ?slots:int -> max_size:int -> Program.t -> t
(** A fresh table for [p], with coders for universe sizes
    [1..max_size] (those whose code fits 40 bits). [slots] (default
    4096) is rounded up to a power of two; a tiny table is still
    correct, just slower. *)

type state
(** A reference state: a code under the table's coder for its size, or
    a plain structure when there is none. *)

val start : t -> Structure.t -> state
(** Enter the reference model. The structure is coded when its size has
    a coder and it exposes exactly the program's combined vocabulary. *)

val coded : state -> bool
(** Whether the state is held as a code (for tests and diagnostics). *)

val structure : state -> Structure.t
(** The structure a state denotes (decoded when coded). *)

val step : t -> state -> Request.t -> state
(** [Runner.step ~backend:`Tuple], through the transition table. Raises
    exactly what that step raises (invalid requests are never stored). *)

val fold : t -> state -> Request.t list -> state
(** [Runner.run ~backend:`Tuple] as a fold of {!step}. *)

val equal : state -> state -> bool
(** [Structure.equal] on the denoted structures; compares codes when
    both are coded at the same size. *)

val matches : state -> Structure.t -> bool
(** [Structure.equal] between a reference state and a structure
    produced by a code path under test; compares codes when the
    structure has exactly the coder's vocabulary and size. *)

val reachable_states : max_size:int -> Program.t -> (int * Runner.state) list
(** The model checkers' reachable domain: for each universe size up to
    [max_size], 32-request random runs of valid requests from
    [f_n(empty)] ({!Dynfo.Workload.generate} over the input vocabulary)
    — three balanced between inserts and deletes, six insert-only — and
    {e every} distinct state along them, the initial one included,
    paired with its size. Commute and Defchange
    confirm laws that synthetic structures refute against exactly these
    states. *)

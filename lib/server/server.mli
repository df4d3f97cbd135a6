(** The [dynfo serve] daemon: a long-lived multi-session server speaking
    the {!Wire} protocol over a Unix-domain or TCP stream socket.

    One thread per connection parses command lines and dispatches them,
    and runs its own calls into a session ({!Session}): many connections
    driving one session get their update bursts coalesced into single
    evaluation ticks, and sessions evolve independently of each other.
    Creating a session (and its cold program analysis) holds no lock
    that other sessions' calls take. Parallel-engine sessions share one
    lazily created {!Dynfo_engine.Pool}.

    The server does not depend on the program registry — the
    [find_program] hook injects name resolution, the same
    dependency-inversion pattern as [Dynfo.Runner.set_auto_chooser]
    (the CLI passes a registry lookup). *)

open Dynfo

type addr = [ `Unix of string | `Tcp of string * int ]
(** [`Unix path] (the default transport — the path is unlinked first if
    it exists, and removed again on shutdown) or [`Tcp (ip, port)];
    port [0] asks the kernel for a free port, see {!port}. *)

type config = {
  addr : addr;
  lanes : int option;
      (** pool lanes for [`Par] sessions; [None] = one per core
          ([Domain.recommended_domain_count]), [Some 1] = inline *)
  find_program : string -> Program.t option;
      (** registry lookup for [create] and [restore] *)
}

type t

val start : config -> t
(** Bind and listen; raises [Unix.Unix_error] on failure (e.g. address
    in use). Does not accept yet — call {!serve}. *)

val port : t -> int option
(** The actually bound TCP port ([None] for Unix sockets) — lets tests
    bind port [0] and discover the choice. *)

val serve : t -> unit
(** Accept connections until {!stop} (or a client's [shutdown] command)
    wakes the accept loop, then tear down: close the listener, end every
    live connection (its receive side is shut, so it sees end of input
    once any reply in flight is sent) and join its thread, close every
    session (each drains its queue first), shut the pool down, unlink
    the socket path. Transient accept errors — [EINTR], and running out
    of descriptors or buffers ([EMFILE], [ENFILE], [ENOBUFS], [ENOMEM])
    — back off briefly and retry instead of ending the loop. Blocks;
    run it from the main thread. *)

val stop : t -> unit
(** Initiate shutdown from another thread. Closing the listening socket
    would not wake a thread blocked in accept(2), so this pokes the
    listener with a throwaway connection instead; {!serve} notices and
    tears down. Idempotent. *)

val run : config -> t
(** [start] + [serve], returning after teardown. *)

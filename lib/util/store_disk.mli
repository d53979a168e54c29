(** Persistent content-addressed artifact backend.

    Stores artifacts in append-only segment files under [<root>/seg/]
    (format version 3).  Each backend streams every put's envelope
    (magic, format version, builder application, payload checksum,
    payload) into one open temporary segment; flushing it writes a
    checksummed trailing index and a footer and commits the segment
    under a fresh name that never replaces another.  Readers load only
    footers and indexes, and list [seg/] again on every miss, so
    segments committed by other backends and processes become visible
    at the next miss.  A lookup serves the key's first record that
    validates: any defect (torn or unflushed segment, bad
    magic/version/checksum, trailing bytes) reads as a miss, and the
    recompute's put appends a valid record, so the key heals.  A flush
    that leaves more than eight committed segments merges the smallest
    ones, keeping each key's first valid record, so the segment count
    stays bounded.  See the implementation header for the exact
    layout. *)

val backend : ?chaos:Chaos.config -> root:string -> unit -> Artifact.backend
(** A backend rooted at [root] (created if missing).  Multiple
    processes and backends may share one root concurrently.  Puts are
    visible through this backend at once and to others after
    [backend_flush]; puts never flushed are lost, which the store
    tolerates as misses: a process killed before its flush keeps
    nothing of what it computed.

    Opening the backend runs {!sweep_orphans} and loads the index of
    every committed segment.

    [chaos] (default {!Chaos.none}) injects the torn-record fault
    plane: a [put] whose [(stage, digest)] site rolls
    {!Chaos.store_torn} writes only a prefix of its envelope, below the
    payload checksum, so every later read of that record detects the
    tear and degrades to a miss while its neighbours in the segment
    are still served.  The other store planes (read errors, dropped
    writes, latency) live above the envelope; inject them with
    {!Chaos.wrap_backend}. *)

val sweep_orphans : root:string -> int
(** Remove the temporary segments under [root] whose writing process
    has exited (it crashed before its flush), returning how many were
    removed.  Segments of live processes, this one included, are kept.
    Called by {!backend}. *)

val temp_segments : root:string -> int
(** Temporary (unflushed) segments currently under [root]. *)

val locate : root:string -> stage:string -> digest:string -> (string * int * int) option
(** [(path, offset, length)] of the first indexed record of
    [(stage, digest-hex)] in the committed segments — exposed so tests
    and benches can damage one record in place. *)

(** Fast simulation backend.

    A drop-in replacement for the reference {!Hierarchy}/{!Level} cascade
    that produces {e identical} per-level {!Stats.t} (including writes and
    writebacks) for any hierarchy without hardware prefetch: same filtered
    semantics (a level only sees the misses of the level above), same LRU
    tie-breaking, same write-allocate behaviour.  The speed comes from
    {!outer_loop}, which skips whole outer-loop iterations once the cache
    state repeats itself shifted by the outer stride; from {!block}, which
    runs an innermost loop with the direct-mapped L1 hit check inlined (or,
    for an associative L1, accounts runs of guaranteed hits in bulk); and
    from a leaner per-access path (no prefetch bookkeeping).

    Not modelled: next-line prefetching.  Callers must fall back to the
    reference path when [prefetch_levels] is non-empty (see
    [Machine.hierarchy]). *)

type t

(** [create ?write_allocate geoms] builds a simulator for the given levels,
    L1 first, with the same geometry validation as {!Level.create}.
    @raise Invalid_argument on an empty list or invalid geometry. *)
val create : ?write_allocate:bool -> Level.geometry list -> t

(** [access t ?write addr] sends one reference down the cascade and
    returns the index of the level that hit (0 = L1), or the number of
    levels for a main-memory access — the same contract as [Hierarchy.access]. *)
val access : t -> ?write:bool -> int -> int

(** [block t ~bases ~strides ~writes ~count] issues [count] iterations of
    an innermost loop body: iteration [j] accesses, for each reference
    [r] in order, address [bases.(r) + j * strides.(r)], as a write iff
    [writes.(r)].  Exactly equivalent to issuing every access through
    {!access}.  With a direct-mapped L1 only the accesses that miss L1
    walk the cascade; with an associative L1, segments in which every
    reference stays within an L1-resident line are accounted in bulk. *)
val block :
  t -> bases:int array -> strides:int array -> writes:bool array -> count:int -> unit

(** [outer_loop t ~stride ~count body] calls [body j] for the iterations
    [j = 0, 1, ...] of an outer loop of [count] iterations and returns how
    many it called.  The caller guarantees that iteration [j + 1] issues
    exactly the accesses of iteration [j], each shifted by [stride] bytes.
    When every level is direct-mapped and [stride] is a non-zero multiple
    of every line size, then as soon as the state after an iteration is
    the state after the one before shifted by [stride], the remaining
    iterations are accounted without calling [body]: each repeats the
    counter deltas of the last one, and the state ends shifted by the
    whole distance.  The result is exactly that of calling [body] for
    every iteration.  Otherwise every iteration runs. *)
val outer_loop : t -> stride:int -> count:int -> (int -> unit) -> int

(** Live per-level counters, L1 first (not copies). *)
val level_stats : t -> Stats.t list

(** Fast-path accounting: how {!block} and {!outer_loop} consumed their
    innermost-loop iterations.  [bulk_iterations + seq_iterations +
    skipped_iterations] is the total iteration count seen. *)
type metrics = {
  bulk_segments : int;  (** all-hit segments accounted in bulk (associative L1 only) *)
  bulk_iterations : int;  (** iterations covered by those segments *)
  seq_iterations : int;  (** iterations replayed access by access *)
  skipped_iterations : int;  (** iterations {!outer_loop} accounted without simulating *)
}

val metrics : t -> metrics

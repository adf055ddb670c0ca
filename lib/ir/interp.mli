(** Executes a program's memory-reference stream against a cache
    hierarchy.

    References with affine subscripts are compiled to a base constant plus
    one stride per loop level, so the inner loop only performs integer
    adds; gather references take a slow path that evaluates the table
    lookup.  One walker visits the iterations: it hands every access to a
    sink (the reference cascade, {!trace}, and the fast backend's gather
    fallback), or stops one level short and hands whole innermost loops
    to {!Mlc_cachesim.Fast_sim.block}.  On the fast backend, a nest of
    depth two or more whose references all advance by one outermost
    stride, and whose inner loop bounds do not depend on the outermost
    variable, has its outermost loop run by
    {!Mlc_cachesim.Fast_sim.outer_loop}, which may account the later
    outer iterations without simulating them. *)

type result = {
  total_refs : int;
  misses : int list;       (** per level, L1 first *)
  miss_rates : float list; (** per level, vs total refs (paper convention) *)
  memory_accesses : int;
  writebacks : int;        (** dirty-line evictions, summed over levels *)
  flops : int;
  cycles : float;
  seconds : float;
  mflops : float;
}

(** Which simulator executes the reference stream.  [`Reference] walks
    the {!Mlc_cachesim.Hierarchy} cascade access by access; [`Fast] uses
    {!Mlc_cachesim.Fast_sim}, which checks L1 inline and skips outer-loop
    iterations once the cache state repeats itself shifted.
    The two produce identical results for any machine without hardware
    prefetching (the differential test suite enforces this); [`Fast] does
    not model prefetch, so callers with [prefetch_levels] must use
    [`Reference]. *)
type backend = [ `Reference | `Fast ]

val backend_name : backend -> string

val backend_of_string : string -> backend option

(** [run ?backend machine layout program] simulates one full execution on
    a fresh simulator ([backend] defaults to [`Reference]). *)
val run :
  ?backend:backend -> Mlc_cachesim.Machine.t -> Layout.t -> Program.t -> result

(** [run_on hierarchy machine layout program] is {!run} against a
    caller-created hierarchy — pass one built with non-default options
    (write policy, prefetching, associativity overrides).  The hierarchy
    must be fresh: its counters become the result.  The cost model still
    comes from [machine]. *)
val run_on :
  Mlc_cachesim.Hierarchy.t ->
  Mlc_cachesim.Machine.t ->
  Layout.t ->
  Program.t ->
  result

(** [run_sim sim machine layout program] is the [`Fast] analogue of
    {!run_on}: runs against a caller-created {!Mlc_cachesim.Fast_sim}
    (which must be fresh) so the caller can inspect its per-level stats
    afterwards. *)
val run_sim :
  Mlc_cachesim.Fast_sim.t ->
  Mlc_cachesim.Machine.t ->
  Layout.t ->
  Program.t ->
  result

(** [feed hierarchy layout program] pushes the reference stream through an
    existing hierarchy (no cost model applied); returns flops executed. *)
val feed : Mlc_cachesim.Hierarchy.t -> Layout.t -> Program.t -> int

(** Full address trace (byte addresses, program order), produced by the
    same walker as {!feed}.  Allocates the whole trace (one int per
    reference). *)
val trace : Layout.t -> Program.t -> int array

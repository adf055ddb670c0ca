(** GROUPPAD — padding to preserve group-temporal reuse on the L1 cache
    (Rivera & Tseng ICS '98; Section 3.2.1).

    Variables are visited in declaration order.  For each one, a limited
    set of candidate positions (multiples of the cache line across the
    cache) is tried, and the position maximizing the number of references
    that successfully exploit group reuse (preserved arcs) across all
    nests is kept, preferring positions that introduce no severe
    conflicts and, among ties, the smallest pad.

    The search is table-driven.  Each nest is compiled once per call,
    against the input layout, into integer tables: its dots as (array
    index, byte offset from that array's base) and its arcs as (trailing
    dot, leading dot, span).  A candidate pad is scored by recomputing
    the bases with {!Mlc_ir.Layout.place}, taking positions
    [(base + offset) mod size], and applying the {!Mlc_analysis.Arcs}
    position rules; {!Mlc_ir.Layout.set_pad_before} is called once per
    variable, for the winning pad.  This is exact: a pad before a
    variable only moves array bases, while offsets (fixed by subscripts
    and intra-variable pads) and arcs (group offsets, where the base
    cancels) do not depend on inter-variable pads.  The result is the
    layout the list-based search (a rebuilt layout per candidate, scored
    by {!conflict_count} and {!preserved_references}) chooses. *)

open Mlc_ir

(** [apply ~size ~line program layout] — [size]/[line] of the cache being
    targeted (L1 for the classic pass). [candidate_step] defaults to
    about [size / 128], line-aligned; smaller steps explore more
    positions.  Records [pass.grouppad.candidates] (variables ×
    candidates) once per call. *)
val apply :
  ?candidate_step:int -> size:int -> line:int -> Program.t -> Layout.t -> Layout.t

(** Number of references exploiting group reuse over all nests on a cache
    of [size] bytes — the objective GROUPPAD maximizes. *)
val preserved_references : size:int -> Program.t -> Layout.t -> int

(** Severe-conflict count over all nests at (size, line). *)
val conflict_count : size:int -> line:int -> Program.t -> Layout.t -> int

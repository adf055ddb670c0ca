(** MAXPAD and L2MAXPAD — maximal variable separation (Section 3.2.2).

    MAXPAD spreads the variables evenly across one cache so that columns
    of different variables cannot overlap (when column sizes are a small
    fraction of the cache, this preserves {e all} group reuse at that
    level).

    L2MAXPAD is the multi-level refinement: applied after GROUPPAD, it
    spreads variables across the L2 cache using pads that are multiples
    of the L1 cache size [S1].  A pad ≡ 0 (mod S1) leaves every address's
    residue mod S1 — and hence the whole GROUPPAD L1 layout — untouched,
    while repositioning variables on the L2 cache. *)

open Mlc_ir

(** [apply ~size program layout] — single-level MAXPAD on a cache of
    [size] bytes, with pad granularity [grain] (default: one element of
    padding precision, 8 bytes). *)
val apply : ?grain:int -> size:int -> Program.t -> Layout.t -> Layout.t

(** [apply_l2 ~s1 ~l2_size program layout] — L2MAXPAD: spread on the L2
    cache with pads that are multiples of [s1].  Records
    [pass.l2maxpad.candidates] (variables × increments) once per call. *)
val apply_l2 : s1:int -> l2_size:int -> Program.t -> Layout.t -> Layout.t

(** Positions of each array's base on a cache of [size] bytes. *)
val positions : size:int -> Layout.t -> (string * int) list

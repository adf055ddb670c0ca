(** The full optimization pipeline, combining every pass in the order the
    paper's infrastructure applies them:

    + loop permutation per nest toward memory order (miss-model ranked,
      dependence-checked);
    + profitable loop fusion of adjacent nests (two-level model);
    + intra-variable padding where a variable conflicts with itself;
    + inter-variable padding / group-reuse padding for the L1 cache,
      then L2MAXPAD when a second level exists.

    The pipeline is a list of {!Pass.t} values: pass [~passes:[...]] to
    run another sequence (for instance with {!Pass.scalar_replace} after
    fusion, to remove register-carried loads).  Tiling is not applied
    blindly — it is profitable for reduction-style nests like matrix
    multiplication, not for the stencils that dominate the suite — so it
    stays an explicit tool ({!Tiling}).

    Every decision is logged; [optimize] never changes what the program
    computes (each pass is legality-checked). *)

open Mlc_ir

type result = {
  program : Program.t;
  layout : Layout.t;
  log : string list;
}

(** The paper's default pipeline: permute, fusion, then
    [Pipeline.passes Grouppad_l1_l2] (intra-pad, GROUPPAD, L2MAXPAD). *)
val default_passes : Pass.t list

(** [optimize ?passes machine program] folds [passes] (default
    {!default_passes}) over [(program, Layout.initial program)] via
    {!Pass.run_all}.  The log names the passes, then lists each pass's
    decisions and the final layout's non-zero pads. *)
val optimize :
  ?passes:Pass.t list -> Mlc_cachesim.Machine.t -> Program.t -> result

(** Convenience: simulate original vs optimized and report the paper's
    metrics (per-level miss rates and model-time improvement). *)
val report : ?passes:Pass.t list -> Mlc_cachesim.Machine.t -> Program.t -> string

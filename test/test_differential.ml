(* Differential oracle: the fast backend against the reference cascade.

   Fast_sim claims bit-identical per-level stats (hits, misses, writes,
   writebacks) for arbitrary hierarchies without prefetch.  These tests
   hold it to that over random traces, random block-shaped access
   patterns, and random power-of-two geometries.

   Case counts scale with the QCHECK_COUNT environment variable (the
   nightly CI job sets it to 2000); the defaults run 1000 random
   (trace, hierarchy) cases. *)

module Cs = Mlc_cachesim

let qcheck_count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* --- generators -------------------------------------------------------- *)

let gen_geom =
  QCheck.Gen.(
    let* line_bits = int_range 4 6 in
    let* sets_bits = int_range 0 4 in
    let* assoc = oneofl [ 1; 2; 4 ] in
    let line = 1 lsl line_bits in
    let n_sets = 1 lsl sets_bits in
    return { Cs.Level.size = line * n_sets * assoc; line; assoc })

let gen_hierarchy =
  QCheck.Gen.(
    let* geoms = list_size (int_range 1 3) gen_geom in
    let* write_allocate = bool in
    return (write_allocate, geoms))

let gen_trace =
  QCheck.Gen.(
    list_size (int_range 1 400) (pair (int_range 0 8191) bool))

let print_geom (g : Cs.Level.geometry) =
  Printf.sprintf "{size=%d;line=%d;assoc=%d}" g.Cs.Level.size g.Cs.Level.line
    g.Cs.Level.assoc

let print_hierarchy (wa, geoms) =
  Printf.sprintf "write_allocate=%b [%s]" wa
    (String.concat "; " (List.map print_geom geoms))

(* --- trace-level equivalence ------------------------------------------- *)

let stats_match h f =
  List.for_all2 Cs.Stats.equal
    (List.map Cs.Level.stats (Cs.Hierarchy.levels h))
    (Cs.Fast_sim.level_stats f)

let prop_trace_equivalence =
  QCheck.Test.make
    ~name:"random trace: Fast_sim.access = Hierarchy.access (stats + hit level)"
    ~count:(qcheck_count 600)
    (QCheck.make
       ~print:(fun (h, trace) ->
         Printf.sprintf "%s trace=%s" (print_hierarchy h)
           (String.concat ","
              (List.map
                 (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else ""))
                 trace)))
       QCheck.Gen.(pair gen_hierarchy gen_trace))
    (fun ((write_allocate, geoms), trace) ->
      let h = Cs.Hierarchy.create ~write_allocate geoms in
      let f = Cs.Fast_sim.create ~write_allocate geoms in
      let levels_agree = ref true in
      List.iter
        (fun (addr, write) ->
          let lh = Cs.Hierarchy.access h ~write addr in
          let lf = Cs.Fast_sim.access f ~write addr in
          if lh <> lf then levels_agree := false)
        trace;
      !levels_agree && stats_match h f)

(* --- block-level equivalence ------------------------------------------- *)

(* Loop-shaped access patterns: a handful of references advancing by
   per-ref strides, the shape [block] bulk-optimizes.  Strides are drawn
   to cover the interesting regimes: zero stride, sub-line strides
   (steady hits), line-sized and super-line strides (miss per segment),
   negative strides, and non-power-of-two ones. *)
let gen_block =
  QCheck.Gen.(
    let* nrefs = int_range 1 4 in
    let* bases = list_repeat nrefs (int_range 0 4096) in
    let* strides =
      list_repeat nrefs
        (oneofl [ -100; -64; -32; -8; -4; 0; 4; 8; 12; 16; 24; 32; 64; 100; 256 ])
    in
    let* writes = list_repeat nrefs bool in
    let* count = int_range 1 300 in
    return (Array.of_list bases, Array.of_list strides, Array.of_list writes, count))

let prop_block_equivalence =
  QCheck.Test.make
    ~name:"random block: Fast_sim.block = per-access reference cascade"
    ~count:(qcheck_count 400)
    (QCheck.make
       ~print:(fun (h, (bases, strides, writes, count)) ->
         Printf.sprintf "%s bases=[%s] strides=[%s] writes=[%s] count=%d"
           (print_hierarchy h)
           (String.concat ";" (Array.to_list (Array.map string_of_int bases)))
           (String.concat ";" (Array.to_list (Array.map string_of_int strides)))
           (String.concat ";"
              (Array.to_list (Array.map string_of_bool writes)))
           count)
       QCheck.Gen.(pair gen_hierarchy gen_block))
    (fun ((write_allocate, geoms), (bases, strides, writes, count)) ->
      let h = Cs.Hierarchy.create ~write_allocate geoms in
      let f = Cs.Fast_sim.create ~write_allocate geoms in
      for j = 0 to count - 1 do
        for r = 0 to Array.length bases - 1 do
          ignore
            (Cs.Hierarchy.access h ~write:writes.(r)
               (bases.(r) + (j * strides.(r))))
        done
      done;
      Cs.Fast_sim.block f ~bases ~strides ~writes ~count;
      stats_match h f)

(* --- outer-loop fast-forward ---------------------------------------------- *)

(* Small random affine nests run through Interp on both backends.  Each
   case sits on one side of one of the conditions under which
   [Fast_sim.outer_loop] may skip outer iterations: [Qualifies] meets
   them all (every ref advances by one outer stride that is a multiple of
   every line size, every level direct-mapped; either write policy), the
   others break exactly one.  The caches are a few dozen lines, so they
   fill within a few outer iterations and the skip has room to fire.  The
   nest runs forward, then backward, twice: each run starts on the lines
   the previous one left behind, so the state a skip leaves (tags and
   dirty bits alike) decides later hits and writebacks. *)
type side =
  | Qualifies
  | Mixed_strides  (** one ref advances by 0 or twice the others' stride *)
  | Not_line_multiple  (** the shared stride is an odd multiple of 8 bytes *)
  | Outer_bound  (** an inner loop bound uses the outermost variable *)
  | Associative  (** one level is 2-way *)

let side_name = function
  | Qualifies -> "qualifies"
  | Mixed_strides -> "mixed strides"
  | Not_line_multiple -> "stride not a line multiple"
  | Outer_bound -> "inner bound uses outer variable"
  | Associative -> "associative level"

type nest_case = {
  side : side;
  write_allocate : bool;
  geoms : Cs.Level.geometry list;
  layout : Mlc_ir.Layout.t;
  program : Mlc_ir.Program.t;
}

let gen_dm_geom =
  QCheck.Gen.(
    let* line_bits = int_range 4 6 in
    let* sets_bits = int_range 1 5 in
    let line = 1 lsl line_bits in
    return { Cs.Level.size = line lsl sets_bits; line; assoc = 1 })

(* Loops o (outermost), m (depth 3 only), i.  Ref r reads or writes
   X(ci*i + cm*m + a, co*o + b): every array has the same column length
   [d0] (8-byte elements), so ref r advances by co * 8 * d0 * step_o
   bytes per outer iteration. *)
let gen_nest_case_of side =
  let open QCheck.Gen in
  let open Mlc_ir in
  let* write_allocate = bool in
  let* geoms = list_size (int_range 1 3) gen_dm_geom in
  let* geoms =
    if side <> Associative then return geoms
    else
      let* which = int_bound (List.length geoms - 1) in
      return (List.mapi (fun k g -> if k = which then { g with Cs.Level.assoc = 2 } else g) geoms)
  in
  let* depth = int_range 2 3 in
  let* narrays = int_range 1 3 in
  let* nrefs = int_range (if side = Mixed_strides then 2 else 1) 5 in
  let* to_ = int_range 3 40 in
  (* a step of 2 would make an odd column length a multiple of 16 bytes *)
  let* step_o = oneofl (if side = Not_line_multiple then [ 1; -1 ] else [ 1; 2; -1 ]) in
  let* tm = if depth = 3 then int_range 1 3 else return 1 in
  let* ti = int_range 1 12 in
  let* refs =
    list_repeat nrefs
      (let* x = int_bound (narrays - 1) in
       let* ci = int_range 0 2 in
       let* cm = int_range 0 1 in
       let* a = int_range 0 3 in
       let* b = int_range 0 3 in
       let* write = bool in
       return (x, ci, cm, a, b, write))
  in
  let* co_mixed = oneofl [ 0; 2 ] in
  let cos = List.mapi (fun r _ -> if side = Mixed_strides && r = 1 then co_mixed else 1) refs in
  let need0 =
    List.fold_left (fun acc (_, ci, cm, a, _, _) -> max acc ((ci * (ti - 1)) + (cm * (tm - 1)) + a + 1)) 1 refs
  in
  let* extra = int_range 0 2 in
  let d0 =
    if side = Not_line_multiple then (2 * ((need0 + 1) / 2)) + 1 + (2 * extra)
    else (8 * ((need0 + 7) / 8)) + (8 * extra)
  in
  let o_max = (to_ - 1) * abs step_o in
  let d1 = (2 * o_max) + 4 in
  let names = List.init narrays (fun x -> Printf.sprintf "X%d" x) in
  let* pads = list_repeat narrays (oneofl [ 0; 8; 24; 64 ]) in
  let* bound = int_range 0 3 in
  let* clamp = int_range 0 (ti + 4) in
  let* clamp_level = int_range 1 (depth - 1) in
  let o = Expr.var "o" in
  let outer step =
    if step > 0 then Loop.make ~step "o" ~lo:(Expr.const 0) ~hi:(Expr.const o_max)
    else Loop.make ~step "o" ~lo:(Expr.const o_max) ~hi:(Expr.const 0)
  in
  (* Outer_bound: one inner loop's range depends on o (its indices stay
     within 0 .. trips-1, so the arrays need no more room). *)
  let inner level var trips =
    let lo = Expr.const 0 and hi = Expr.const (trips - 1) in
    if side <> Outer_bound || level <> clamp_level then Loop.make var ~lo ~hi
    else
      let o_less k = Expr.add o (Expr.const (-k)) in
      match bound with
      | 0 -> Loop.make var ~lo ~hi ~hi_min:(o_less (o_max - clamp))
      | 1 -> Loop.make var ~lo ~hi ~lo_max:(o_less clamp)
      | 2 -> Loop.make var ~lo ~hi:(o_less (o_max - trips + 1))
      | _ -> Loop.make var ~lo:(Expr.sub (Expr.const o_max) o) ~hi
  in
  let loops step =
    (outer step :: (if depth = 3 then [ inner 1 "m" tm ] else []))
    @ [ inner (depth - 1) "i" ti ]
  in
  let body_refs =
    List.map2
      (fun (x, ci, cm, a, b, write) co ->
        let sub0 =
          Expr.add (Expr.term ci "i")
            (Expr.add (if depth = 3 then Expr.term cm "m" else Expr.const 0) (Expr.const a))
        in
        let sub1 = Expr.add (Expr.term co "o") (Expr.const b) in
        let name = List.nth names x in
        (if write then Ref_.write_a else Ref_.read_a) name [ sub0; sub1 ])
      refs cos
  in
  let* flops = int_range 0 3 in
  let arrays = List.map (fun name -> Array_decl.make ~elem_size:8 name [ d0; d1 ]) names in
  let program =
    Program.make ~time_steps:2 "ff" arrays
      [
        Nest.make (loops step_o) [ Stmt.make ~flops body_refs ];
        Nest.make (loops (-step_o)) [ Stmt.make ~flops body_refs ];
      ]
  in
  let layout =
    List.fold_left2
      (fun l name pad -> Layout.set_pad_before l name pad)
      (Layout.initial program) names pads
  in
  return { side; write_allocate; geoms; layout; program }

let gen_nest_case =
  QCheck.Gen.(
    oneofl
      [ Qualifies; Qualifies; Mixed_strides; Not_line_multiple; Outer_bound; Associative ]
    >>= gen_nest_case_of)

let print_nest_case c =
  Format.asprintf "%s, write_allocate=%b [%s], pads [%s]@.%a" (side_name c.side)
    c.write_allocate
    (String.concat "; " (List.map print_geom c.geoms))
    (String.concat "; "
       (List.map
          (fun name -> string_of_int (Mlc_ir.Layout.pad_before c.layout name))
          (Mlc_ir.Layout.array_names c.layout)))
    Mlc_ir.Program.pp c.program

(* Both backends on one case: do the whole results and every per-level
   counter agree, and how many body iterations did the fast one skip? *)
let run_nest_case c =
  let machine = { Cs.Machine.alpha21164 with Cs.Machine.geometries = c.geoms } in
  let h = Cs.Hierarchy.create ~write_allocate:c.write_allocate c.geoms in
  let f = Cs.Fast_sim.create ~write_allocate:c.write_allocate c.geoms in
  let reference = Mlc_ir.Interp.run_on h machine c.layout c.program in
  let fast = Mlc_ir.Interp.run_sim f machine c.layout c.program in
  (reference = fast && stats_match h f, (Cs.Fast_sim.metrics f).Cs.Fast_sim.skipped_iterations)

let prop_fast_forward =
  QCheck.Test.make
    ~name:"random affine nest: Interp fast = reference, skips only where it qualifies"
    ~count:(qcheck_count 300)
    (QCheck.make ~print:print_nest_case gen_nest_case)
    (fun c ->
      let agree, skipped = run_nest_case c in
      agree && (c.side = Qualifies || skipped = 0))

(* The property above passes vacuously if the skip never fires; require
   it on a fair share of qualifying cases under each write policy. *)
let test_fast_forward_fires () =
  let rand = Random.State.make [| 9 |] in
  let cases = QCheck.Gen.generate ~rand ~n:300 (gen_nest_case_of Qualifies) in
  List.iter
    (fun write_allocate ->
      let cases = List.filter (fun c -> c.write_allocate = write_allocate) cases in
      let fired =
        List.filter
          (fun c ->
            let agree, skipped = run_nest_case c in
            if not agree then Alcotest.fail (print_nest_case c);
            skipped > 0)
          cases
      in
      Alcotest.(check bool)
        (Printf.sprintf "write_allocate=%b: fired in %d of %d qualifying cases"
           write_allocate (List.length fired) (List.length cases))
        true
        (2 * List.length fired >= List.length cases))
    [ true; false ]

(* --- whole-kernel equivalence ------------------------------------------- *)

(* End-to-end: Interp with backend:`Fast must reproduce the reference
   result record exactly — counters and derived floats — on real kernels,
   on both machine presets, including a gather kernel (IRR) that takes
   the per-access fallback inside feed_nest_fast. *)
let test_kernel_equivalence () =
  let open Mlc_ir in
  let cases =
    [
      ("jacobi64", Mlc_kernels.Livermore.jacobi 64);
      ("expl48", Mlc_kernels.Livermore.expl 48);
      ("dot512", Mlc_kernels.Livermore.dot 512);
      ("irr40", Mlc_kernels.Livermore.irr 40);
      ("adi32", Mlc_kernels.Livermore.adi 32);
    ]
  in
  List.iter
    (fun (name, program) ->
      List.iter
        (fun machine ->
          let layout = Layout.initial program in
          let reference = Interp.run ~backend:`Reference machine layout program in
          let fast = Interp.run ~backend:`Fast machine layout program in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" name machine.Cs.Machine.name)
            true
            (reference = fast))
        [ Cs.Machine.ultrasparc; Cs.Machine.alpha21164 ])
    cases

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_trace_equivalence;
            prop_block_equivalence;
            prop_fast_forward;
          ] );
      ( "ffwd",
        [
          Alcotest.test_case "fast-forward fires on qualifying nests" `Quick
            test_fast_forward_fires;
        ] );
      ( "kernels",
        [ Alcotest.test_case "Interp fast = reference" `Quick test_kernel_equivalence ] );
    ]

module Cs = Mlc_cachesim
module Obs = Mlc_obs.Obs

type result = {
  total_refs : int;
  misses : int list;
  miss_rates : float list;
  memory_accesses : int;
  writebacks : int;
  flops : int;
  cycles : float;
  seconds : float;
  mflops : float;
}

(* A compiled reference: either fully linear in the loop variables, or a
   slow closure for gather subscripts. *)
type cref =
  | Linear of { base : int; strides : int array }
  | Slow of Ref_.t

let compile_ref layout ~var_level ~depth r =
  if Ref_.is_affine r then begin
    let addr = Layout.address_expr layout r in
    let strides = Array.make depth 0 in
    List.iter
      (fun v ->
        match Hashtbl.find_opt var_level v with
        | Some level -> strides.(level) <- Expr.coeff addr v
        | None -> invalid_arg ("Interp: unbound loop variable " ^ v))
      (Expr.vars addr);
    Linear { base = Expr.const_part addr; strides }
  end
  else Slow r

(* A nest compiled against a layout: every reference as a base plus one
   stride per loop level (gather references fall back to evaluating
   their subscripts), and the partial-address matrix the walker keeps
   current level by level. *)
type compiled = {
  loops : Loop.t array;
  depth : int;
  crefs : cref array;
  strides : int array array;     (* strides.(level).(r); 0 for gathers *)
  is_write : bool array;
  flops_per_iter : int;
  partials : int array array;
      (* partials.(l).(r): base plus the contribution of levels < l *)
  ivs : int array;
  env : string -> int;
}

let compile_nest layout nest =
  let loops = Array.of_list nest.Nest.loops in
  let depth = Array.length loops in
  let var_level = Hashtbl.create 8 in
  Array.iteri (fun i l -> Hashtbl.replace var_level l.Loop.var i) loops;
  let body_refs = List.concat_map (fun s -> s.Stmt.refs) nest.Nest.body in
  let crefs =
    body_refs
    |> List.map (compile_ref layout ~var_level ~depth)
    |> Array.of_list
  in
  let nrefs = Array.length crefs in
  let strides =
    Array.init depth (fun level ->
        Array.map
          (function Linear { strides; _ } -> strides.(level) | Slow _ -> 0)
          crefs)
  in
  let partials = Array.make_matrix (depth + 1) nrefs 0 in
  Array.iteri
    (fun r cref ->
      match cref with
      | Linear { base; _ } -> partials.(0).(r) <- base
      | Slow _ -> ())
    crefs;
  let ivs = Array.make depth 0 in
  let env v =
    match Hashtbl.find_opt var_level v with
    | Some level -> ivs.(level)
    | None -> invalid_arg ("Interp: unbound variable " ^ v)
  in
  {
    loops;
    depth;
    crefs;
    strides;
    is_write = Array.of_list (List.map Ref_.is_write body_refs);
    flops_per_iter =
      List.fold_left (fun acc s -> acc + s.Stmt.flops) 0 nest.Nest.body;
    partials;
    ivs;
    env;
  }

(* Set loop [level]'s variable to [iv] and bring [partials.(level + 1)]
   up to date. *)
let enter c level iv =
  let cur = c.partials.(level) in
  let next = c.partials.(level + 1) in
  let strides = c.strides.(level) in
  c.ivs.(level) <- iv;
  for r = 0 to Array.length c.crefs - 1 do
    next.(r) <- cur.(r) + (strides.(r) * iv)
  done

(* The walker: runs loop levels [from, upto) in program order (levels
   below [from] already entered), keeping [partials] current, and calls
   [leaf ()] once per iteration of level [upto - 1] (once in all when
   [upto = from]). *)
let walk ?(from = 0) c ~upto leaf =
  let rec go level =
    if level = upto then leaf ()
    else
      Loop.iter c.env c.loops.(level) (fun iv ->
          enter c level iv;
          go (level + 1))
  in
  go from

(* Per-access walk: [sink write addr] for every reference of every
   iteration, in program order.  Returns the flops executed. *)
let walk_accesses layout c sink =
  let nrefs = Array.length c.crefs in
  let addrs = c.partials.(c.depth) in
  let flops = ref 0 in
  walk c ~upto:c.depth (fun () ->
      for r = 0 to nrefs - 1 do
        let addr =
          match c.crefs.(r) with
          | Linear _ -> addrs.(r)
          | Slow ref_ -> Layout.address_of_ref layout c.env ref_
        in
        sink c.is_write.(r) addr
      done;
      flops := !flops + c.flops_per_iter);
  !flops

let feed_nest hierarchy layout nest =
  walk_accesses layout (compile_nest layout nest) (fun write addr ->
      ignore (Cs.Hierarchy.access hierarchy ~write addr))

(* Every nest of every time step through [feed_nest], in program order;
   returns the flops executed. *)
let feed_program feed_nest program =
  let flops = ref 0 in
  for _step = 1 to program.Program.time_steps do
    List.iter (fun nest -> flops := !flops + feed_nest nest) program.Program.nests
  done;
  !flops

let feed hierarchy layout program = feed_program (feed_nest hierarchy layout) program

(* The stride in bytes every reference advances by per outermost
   iteration, when the nest has one and no inner loop bound depends on
   the outermost variable: then outer iteration j+1 issues iteration j's
   accesses shifted by that stride, as [Fast_sim.outer_loop] requires. *)
let outer_stride c =
  if c.depth < 2 || Array.length c.crefs = 0 then None
  else begin
    let outer = c.loops.(0) in
    let stride = c.strides.(0).(0) * outer.Loop.step in
    let mentions e = Expr.coeff e outer.Loop.var <> 0 in
    let free (l : Loop.t) =
      not
        (mentions l.lo || mentions l.hi
        || Option.fold ~none:false ~some:mentions l.lo_max
        || Option.fold ~none:false ~some:mentions l.hi_min)
    in
    if
      stride <> 0
      && Array.for_all (fun s -> s * outer.Loop.step = stride) c.strides.(0)
      && Array.for_all free (Array.sub c.loops 1 (c.depth - 1))
    then Some stride
    else None
  end

(* Fast-backend twin of [feed_nest]: the walker stops one level short and
   the whole innermost loop is handed to [Fast_sim.block] as (base,
   stride, count) per reference.  When the nest has an outer stride, the
   outermost loop is run by [Fast_sim.outer_loop], which may account its
   later iterations without calling back; they execute the flops of the
   last one that ran.  Gather subscripts (and zero-depth bodies) fall
   back to per-access feeding, which is still exact. *)
let feed_nest_fast sim layout nest =
  let c = compile_nest layout nest in
  let all_linear =
    Array.for_all (function Linear _ -> true | Slow _ -> false) c.crefs
  in
  if all_linear && c.depth >= 1 then begin
    let nrefs = Array.length c.crefs in
    let inner = c.depth - 1 in
    let inner_loop = c.loops.(inner) in
    let strides_inner = c.strides.(inner) in
    let block_strides =
      Array.map (fun s -> s * inner_loop.Loop.step) strides_inner
    in
    let bases = Array.make nrefs 0 in
    let cur = c.partials.(inner) in
    let flops = ref 0 in
    let leaf () =
      let count = Loop.trip_count c.env inner_loop in
      if count > 0 then begin
        let lo = Loop.effective_lo c.env inner_loop in
        for r = 0 to nrefs - 1 do
          bases.(r) <- cur.(r) + (strides_inner.(r) * lo)
        done;
        Cs.Fast_sim.block sim ~bases ~strides:block_strides
          ~writes:c.is_write ~count;
        flops := !flops + (c.flops_per_iter * count)
      end
    in
    (match outer_stride c with
    | None -> walk c ~upto:inner leaf
    | Some stride ->
        let outer = c.loops.(0) in
        let lo = Loop.effective_lo c.env outer in
        let count = Loop.trip_count c.env outer in
        let last = ref 0 in
        let ran =
          Cs.Fast_sim.outer_loop sim ~stride ~count (fun j ->
              let before = !flops in
              enter c 0 (lo + (j * outer.Loop.step));
              walk ~from:1 c ~upto:inner leaf;
              last := !flops - before)
        in
        flops := !flops + ((count - ran) * !last));
    !flops
  end
  else
    walk_accesses layout c (fun write addr ->
        ignore (Cs.Fast_sim.access sim ~write addr))

let feed_fast sim layout program = feed_program (feed_nest_fast sim layout) program

(* --- observability ------------------------------------------------------- *)

(* Per-level counters are recorded as deltas against a pre-run snapshot,
   so reused (cleared or accumulating) hierarchies and simulators never
   double-count.  Everything below is skipped when no buffer is
   installed; the counters are per-run, never per-access, so the
   instrumentation cost is independent of trace length. *)

let obs_snapshot stats = List.map (fun s -> Cs.Stats.add s (Cs.Stats.zero ())) stats

let obs_count name n = if n <> 0 then Obs.count ~n name

let obs_record_levels ~before ~after =
  List.iteri
    (fun i (b, a) ->
      let l = Printf.sprintf "sim.L%d." (i + 1) in
      obs_count (l ^ "accesses") (a.Cs.Stats.accesses - b.Cs.Stats.accesses);
      obs_count (l ^ "hits") (a.Cs.Stats.hits - b.Cs.Stats.hits);
      obs_count (l ^ "misses") (a.Cs.Stats.misses - b.Cs.Stats.misses);
      obs_count (l ^ "writes") (a.Cs.Stats.writes - b.Cs.Stats.writes);
      obs_count (l ^ "writebacks") (a.Cs.Stats.writebacks - b.Cs.Stats.writebacks))
    (List.combine before after);
  match (before, after) with
  | b1 :: _, a1 :: _ ->
      obs_count "sim.refs" (a1.Cs.Stats.accesses - b1.Cs.Stats.accesses)
  | _ -> ()

(* The one place a [result] is built: every figure derives from the
   per-level counters (L1 first) and the flops executed. *)
let result_of_stats cost ~flops stats =
  let total_refs = (List.hd stats).Cs.Stats.accesses in
  {
    total_refs;
    misses = List.map (fun s -> s.Cs.Stats.misses) stats;
    miss_rates = List.map (Cs.Stats.miss_rate_vs ~total_refs) stats;
    memory_accesses = (List.nth stats (List.length stats - 1)).Cs.Stats.misses;
    writebacks = List.fold_left (fun acc s -> acc + s.Cs.Stats.writebacks) 0 stats;
    flops;
    cycles = Cs.Cost_model.cycles_of_stats cost stats;
    seconds = Cs.Cost_model.seconds_of_stats cost stats;
    mflops = Cs.Cost_model.mflops_of_stats cost ~flops stats;
  }

(* One run on a fresh simulator, shared by both backends: [feed] drives
   it and [stats ()] reads its live per-level counters.  [extra ()]
   lists backend-specific cumulative counters, recorded as deltas. *)
let run_with ~backend ~stats ?(extra = fun () -> []) feed machine layout program =
  let before =
    if Obs.enabled () then Some (obs_snapshot (stats ()), extra ()) else None
  in
  let flops =
    match before with
    | None -> feed layout program
    | Some _ ->
        Obs.with_span ~cat:"sim"
          ~args:[ ("backend", `Str backend); ("program", `Str program.Program.name) ]
          "sim:run"
          (fun () -> feed layout program)
  in
  (match before with
  | None -> ()
  | Some (levels, extra0) ->
      obs_record_levels ~before:levels ~after:(obs_snapshot (stats ()));
      List.iter2 (fun (name, n0) (_, n1) -> obs_count name (n1 - n0)) extra0 (extra ()));
  result_of_stats machine.Cs.Machine.cost ~flops (stats ())

let run_on hierarchy =
  run_with ~backend:"reference"
    ~stats:(fun () -> List.map Cs.Level.stats (Cs.Hierarchy.levels hierarchy))
    (feed hierarchy)

let fast_counters sim =
  let m = Cs.Fast_sim.metrics sim in
  [
    ("sim.fast.bulk_segments", m.Cs.Fast_sim.bulk_segments);
    ("sim.fast.bulk_iterations", m.Cs.Fast_sim.bulk_iterations);
    ("sim.fast.seq_iterations", m.Cs.Fast_sim.seq_iterations);
    ("sim.fast.skipped_iterations", m.Cs.Fast_sim.skipped_iterations);
  ]

let run_sim sim =
  run_with ~backend:"fast"
    ~stats:(fun () -> Cs.Fast_sim.level_stats sim)
    ~extra:(fun () -> fast_counters sim)
    (feed_fast sim)

type backend = [ `Reference | `Fast ]

let backend_name = function `Reference -> "reference" | `Fast -> "fast"

let backend_of_string = function
  | "reference" -> Some `Reference
  | "fast" -> Some `Fast
  | _ -> None

let run ?(backend = `Reference) machine layout program =
  match backend with
  | `Reference -> run_on (Cs.Machine.hierarchy machine) machine layout program
  | `Fast ->
      run_sim
        (Cs.Fast_sim.create machine.Cs.Machine.geometries)
        machine layout program

let trace layout program =
  let out = ref (Array.make 4096 0) and n = ref 0 in
  let sink _write addr =
    if !n = Array.length !out then begin
      let bigger = Array.make (2 * !n) 0 in
      Array.blit !out 0 bigger 0 !n;
      out := bigger
    end;
    !out.(!n) <- addr;
    incr n
  in
  let walk nest = walk_accesses layout (compile_nest layout nest) sink in
  ignore (feed_program walk program);
  Array.sub !out 0 !n

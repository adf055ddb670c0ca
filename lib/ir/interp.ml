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

(* The walker: runs loop levels [0, upto) in program order, keeping
   [partials] current, and calls [leaf ()] once per iteration of level
   [upto - 1] (once in all when [upto = 0]). *)
let walk c ~upto leaf =
  let nrefs = Array.length c.crefs in
  let rec go level =
    if level = upto then leaf ()
    else begin
      let cur = c.partials.(level) in
      let next = c.partials.(level + 1) in
      let strides = c.strides.(level) in
      Loop.iter c.env c.loops.(level) (fun iv ->
          c.ivs.(level) <- iv;
          for r = 0 to nrefs - 1 do
            next.(r) <- cur.(r) + (strides.(r) * iv)
          done;
          go (level + 1))
    end
  in
  go 0

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

let feed hierarchy layout program =
  let flops = ref 0 in
  for _step = 1 to program.Program.time_steps do
    List.iter
      (fun nest -> flops := !flops + feed_nest hierarchy layout nest)
      program.Program.nests
  done;
  !flops

(* Fast-backend twin of [feed_nest]: the walker stops one level short and
   the whole innermost loop is handed to [Fast_sim.block] as (base,
   stride, count) per reference, letting the simulator account steady
   runs of L1 hits in bulk.  Gather subscripts (and zero-depth bodies)
   fall back to per-access feeding, which is still exact — just not
   bulked. *)
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
    walk c ~upto:inner (fun () ->
        let count = Loop.trip_count c.env inner_loop in
        if count > 0 then begin
          let lo = Loop.effective_lo c.env inner_loop in
          for r = 0 to nrefs - 1 do
            bases.(r) <- cur.(r) + (strides_inner.(r) * lo)
          done;
          Cs.Fast_sim.block sim ~bases ~strides:block_strides
            ~writes:c.is_write ~count;
          flops := !flops + (c.flops_per_iter * count)
        end);
    !flops
  end
  else
    walk_accesses layout c (fun write addr ->
        ignore (Cs.Fast_sim.access sim ~write addr))

let feed_fast sim layout program =
  let flops = ref 0 in
  for _step = 1 to program.Program.time_steps do
    List.iter
      (fun nest -> flops := !flops + feed_nest_fast sim layout nest)
      program.Program.nests
  done;
  !flops

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

let run_on hierarchy machine layout program =
  let enabled = Obs.enabled () in
  let stats_of () = List.map Cs.Level.stats (Cs.Hierarchy.levels hierarchy) in
  let before = if enabled then obs_snapshot (stats_of ()) else [] in
  let flops =
    if not enabled then feed hierarchy layout program
    else
      Obs.with_span ~cat:"sim"
        ~args:
          [
            ("backend", `Str "reference");
            ("program", `Str program.Program.name);
          ]
        "sim:run"
        (fun () -> feed hierarchy layout program)
  in
  if enabled then obs_record_levels ~before ~after:(obs_snapshot (stats_of ()));
  let total_refs = Cs.Hierarchy.total_refs hierarchy in
  let misses =
    List.map
      (fun level -> (Cs.Level.stats level).Cs.Stats.misses)
      (Cs.Hierarchy.levels hierarchy)
  in
  let cycles = Cs.Cost_model.cycles machine.Cs.Machine.cost hierarchy in
  let seconds = Cs.Cost_model.seconds machine.Cs.Machine.cost hierarchy in
  {
    total_refs;
    misses;
    miss_rates = Cs.Hierarchy.miss_rates hierarchy;
    memory_accesses = Cs.Hierarchy.memory_accesses hierarchy;
    writebacks = Cs.Hierarchy.writebacks hierarchy;
    flops;
    cycles;
    seconds;
    mflops = Cs.Cost_model.mflops machine.Cs.Machine.cost ~flops hierarchy;
  }

let run_sim sim machine layout program =
  let enabled = Obs.enabled () in
  let before = if enabled then obs_snapshot (Cs.Fast_sim.level_stats sim) else [] in
  let m0 = if enabled then Some (Cs.Fast_sim.metrics sim) else None in
  let flops =
    if not enabled then feed_fast sim layout program
    else
      Obs.with_span ~cat:"sim"
        ~args:
          [ ("backend", `Str "fast"); ("program", `Str program.Program.name) ]
        "sim:run"
        (fun () -> feed_fast sim layout program)
  in
  if enabled then begin
    obs_record_levels ~before ~after:(obs_snapshot (Cs.Fast_sim.level_stats sim));
    match m0 with
    | Some m0 ->
        let m1 = Cs.Fast_sim.metrics sim in
        obs_count "sim.fast.bulk_segments"
          (m1.Cs.Fast_sim.bulk_segments - m0.Cs.Fast_sim.bulk_segments);
        obs_count "sim.fast.bulk_iterations"
          (m1.Cs.Fast_sim.bulk_iterations - m0.Cs.Fast_sim.bulk_iterations);
        obs_count "sim.fast.seq_iterations"
          (m1.Cs.Fast_sim.seq_iterations - m0.Cs.Fast_sim.seq_iterations)
    | None -> ()
  end;
  let stats = Cs.Fast_sim.level_stats sim in
  let cost = machine.Cs.Machine.cost in
  {
    total_refs = Cs.Fast_sim.total_refs sim;
    misses = List.map (fun s -> s.Cs.Stats.misses) stats;
    miss_rates = Cs.Fast_sim.miss_rates sim;
    memory_accesses = Cs.Fast_sim.memory_accesses sim;
    writebacks = Cs.Fast_sim.writebacks sim;
    flops;
    cycles = Cs.Cost_model.cycles_of_stats cost stats;
    seconds = Cs.Cost_model.seconds_of_stats cost stats;
    mflops = Cs.Cost_model.mflops_of_stats cost ~flops stats;
  }

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
  for _step = 1 to program.Program.time_steps do
    List.iter
      (fun nest -> ignore (walk_accesses layout (compile_nest layout nest) sink))
      program.Program.nests
  done;
  Array.sub !out 0 !n

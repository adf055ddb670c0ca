(* Calls into each layer of the system, timed from outside: kernels
   ([Registry.build]), passes ([Pass.run_one] over [Pipeline.passes]),
   address generation plus simulation ([Interp.run_sim] on a
   caller-built [Fast_sim], [Interp.run_on] for the reference cascade),
   the cascades alone ([Hierarchy.access], [Fast_sim.access]), the naive
   trace ([Interp.trace]) and the engine ([Engine.run]). *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality
module E = Mlc_engine
module Obs = Mlc_obs.Obs

(* The paper's 16K/512K direct-mapped cascade. *)
let machine = Cs.Machine.ultrasparc

let now = Unix.gettimeofday

let cpu_now = Calib.cpu_now

let strategy_tag = E.Job.strategy_tag

(* --- kernels ------------------------------------------------------------ *)

type program = {
  name : string;
  n : int option;  (** [None]: the registry's default size *)
  program : Program.t;
}

let build ~name ~n =
  let e = K.Registry.find name in
  let program =
    match (n, e.K.Registry.build_sized) with
    | None, _ -> e.K.Registry.build ()
    | Some n, Some f -> f n
    | Some _, None -> invalid_arg ("no sized constructor for " ^ name)
  in
  { name = e.K.Registry.name; n; program }

let has_gather p =
  List.exists
    (fun nest -> List.exists (fun r -> not (Ref_.is_affine r)) (Nest.refs nest))
    p.Program.nests

let key kind p strategy =
  Golden.case_key kind ~program:p.name ~n:p.n ~strategy:(strategy_tag strategy)

(* --- passes ------------------------------------------------------------- *)

(** Per-pass totals over every [Pass.run_one] call made through
    {!layout}. *)
type pass_stat = {
  mutable calls : int;
  mutable seconds : float;
  mutable max_s : float;
  mutable decisions : int;
}

let pass_names = [ "intra-pad"; "pad"; "multilvlpad"; "grouppad"; "l2maxpad" ]

let pass_table () : (string, pass_stat) Hashtbl.t = Hashtbl.create 8

let pass_stat tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
      let s = { calls = 0; seconds = 0.0; max_s = 0.0; decisions = 0 } in
      Hashtbl.replace tbl name s;
      s

(** The strategy's layout, computed pass by pass from the packed layout.
    Each call is recorded in [passes] and, when tracing, in a
    ["pass:<name>"] span. *)
let layout passes strategy p =
  let _, layout =
    List.fold_left
      (fun (prog, lay) (pass : L.Pass.t) ->
        let t0 = now () in
        let prog, lay, events =
          Obs.with_span ~cat:"pass" ("pass:" ^ pass.L.Pass.name) (fun () ->
              L.Pass.run_one machine pass (prog, lay))
        in
        let dt = now () -. t0 in
        let s = pass_stat passes pass.L.Pass.name in
        s.calls <- s.calls + 1;
        s.seconds <- s.seconds +. dt;
        s.max_s <- Float.max s.max_s dt;
        s.decisions <- s.decisions + List.length events;
        (prog, lay))
      (p.program, Layout.initial p.program)
      (L.Pipeline.passes strategy)
  in
  layout

(* --- simulation --------------------------------------------------------- *)

(** Totals of the fast simulator's own accounting over a set of runs. *)
type sim_counts = {
  mutable refs : int;
  mutable bulk_segments : int;
  mutable bulk_iterations : int;
  mutable seq_iterations : int;
}

let sim_counts () =
  { refs = 0; bulk_segments = 0; bulk_iterations = 0; seq_iterations = 0 }

let same_counts a b =
  a.refs = b.refs && a.bulk_segments = b.bulk_segments
  && a.bulk_iterations = b.bulk_iterations
  && a.seq_iterations = b.seq_iterations

(** One fast-backend simulation on a fresh cascade; returns the stats
    string the golden [stats] entries hold. *)
let simulate_fast counts p layout =
  let sim = Cs.Fast_sim.create machine.Cs.Machine.geometries in
  let r = Interp.run_sim sim machine layout p.program in
  let m = Cs.Fast_sim.metrics sim in
  counts.refs <- counts.refs + r.Interp.total_refs;
  counts.bulk_segments <- counts.bulk_segments + m.Cs.Fast_sim.bulk_segments;
  counts.bulk_iterations <- counts.bulk_iterations + m.Cs.Fast_sim.bulk_iterations;
  counts.seq_iterations <- counts.seq_iterations + m.Cs.Fast_sim.seq_iterations;
  ( r.Interp.total_refs,
    Golden.stats_string ~refs:r.Interp.total_refs (Cs.Fast_sim.level_stats sim) )

(** The same on the reference cascade. *)
let simulate_reference p layout =
  let h = Cs.Machine.hierarchy machine in
  let r = Interp.run_on h machine layout p.program in
  ( r.Interp.total_refs,
    Golden.stats_string ~refs:r.Interp.total_refs
      (List.map Cs.Level.stats (Cs.Hierarchy.levels h)) )

(* --- the timed phase ---------------------------------------------------- *)

(** A unit of timed work: [exec] does the work and returns the check of
    its output, which runs outside the timed interval. *)
type case = { id : string; exec : unit -> unit -> bool }

type timing = {
  walls : float list array;  (** per case, seconds, one per execution *)
  cpus : float list array;
  units : float list array;
      (** per execution, seconds of the calibration unit run right after *)
  batches : int;  (** passes over the cases *)
}

let timing n batches =
  { walls = Array.make n []; cpus = Array.make n []; units = Array.make n []; batches }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Run case [i], add its wall and CPU time to [t], time a calibration
   unit, then check the case's output; an exception counts as a failed
   check. *)
let run_case tally (cases : case array) t i =
  let c = cases.(i) in
  let w0 = now () and c0 = cpu_now () in
  match Obs.with_span ~cat:"case" c.id c.exec with
  | check ->
      let w = now () -. w0 and cp = cpu_now () -. c0 in
      t.walls.(i) <- w :: t.walls.(i);
      t.cpus.(i) <- cp :: t.cpus.(i);
      t.units.(i) <- Calib.unit_s () :: t.units.(i);
      ignore
        (Option.map (Golden.check tally ~what:c.id) (Golden.guard tally ~what:c.id check))
  | exception e ->
      ignore (Golden.check tally ~what:(c.id ^ ": raised " ^ Printexc.to_string e) false)

(** Whether one more unit of work, predicted to last the mean of the
    [done_] units run since [start], still ends within [seconds]. *)
let another_fits ~start ~done_ ~seconds =
  let elapsed = now () -. start in
  done_ > 0 && elapsed +. (elapsed /. float_of_int done_) <= seconds

(** Run the cases as a closed loop in whole passes, each over them in a
    fresh seeded order: at least [min_runs] passes, then more while one
    more is predicted to end within [seconds].  [seconds = 0] makes
    exactly [min_runs] passes. *)
let timed_phase ?(min_runs = 1) ~seconds ~rng tally (cases : case array) =
  let n = Array.length cases in
  let t = timing n 0 in
  let start = now () in
  let rec passes k =
    if k < min_runs || another_fits ~start ~done_:k ~seconds then begin
      Array.iter (run_case tally cases t) (shuffle rng (Array.init n Fun.id));
      passes (k + 1)
    end
    else k
  in
  { t with batches = passes 0 }

(** One pass over the cases in a seeded order, each case run twice in a
    row: once untraced and once recording into [buf], the traced run
    first on every other case.  [before traced] is called before each
    run.  Returns the untraced and the traced timings. *)
let paired_pass ~rng ~buf ~before tally (cases : case array) =
  let n = Array.length cases in
  let untraced = timing n 1 and traced = timing n 1 in
  let run traced_run i =
    before traced_run;
    if traced_run then
      Obs.with_buf buf (fun () -> run_case tally cases traced i)
    else run_case tally cases untraced i
  in
  Array.iteri
    (fun k i ->
      let traced_first = k mod 2 = 1 in
      run traced_first i;
      run (not traced_first) i)
    (shuffle rng (Array.init n Fun.id));
  (untraced, traced)

let per_case_medians_of_lists lists =
  List.filter (fun l -> l <> []) lists |> List.map Quantile.median

let per_case_medians lists = per_case_medians_of_lists (Array.to_list lists)

let sum = List.fold_left ( +. ) 0.0

(** Seconds of one pass over the cases: the sum of per-case medians. *)
let batch_wall t = sum (per_case_medians t.walls)

let batch_cpu t = sum (per_case_medians t.cpus)

(* Per case, the median over executions of its time in calibrated
   seconds, each execution scaled by the calibration unit run right
   after it. *)
let calibrated t times =
  Array.to_list (Array.map2 (List.map2 (fun x unit -> Calib.scale ~unit x)) times t.units)
  |> per_case_medians_of_lists

(** A pass in calibrated seconds (see {!Calib}): wall and CPU. *)
let batch_wall_cal t = sum (calibrated t t.walls)

let batch_cpu_cal t = sum (calibrated t t.cpus)

(** Median seconds of the calibration units run in [t]. *)
let unit_median t = Quantile.median (List.concat (Array.to_list t.units))

(** 90th percentile of the per-case median times, in seconds. *)
let case_p90 t =
  match per_case_medians t.walls with [] -> 0.0 | l -> Quantile.p90 l

(** Median over the pairs [(untraced, traced)] of seconds of
    [traced / untraced - 1]: the cost of tracing.  Pairs with an
    untraced time under [min_s] are left out, their ratio being mostly
    timer noise. *)
let overhead ?(min_s = 0.0) pairs =
  match List.filter (fun (u, _) -> u > 0.0 && u >= min_s) pairs with
  | [] -> 0.0
  | l -> Quantile.median (List.map (fun (u, t) -> (t /. u) -. 1.0) l)

(** {!overhead} of a {!paired_pass}. *)
let pass_overhead untraced traced =
  let first l = match l with x :: _ -> Some x | [] -> None in
  Array.to_list
    (Array.map2
       (fun u t -> match (first u, first t) with Some u, Some t -> Some (u, t) | _ -> None)
       untraced.walls traced.walls)
  |> List.filter_map Fun.id |> overhead

(* --- spans -------------------------------------------------------------- *)

(** A finished span. *)
type span = { cat : string; name : string; dur_us : int }

(** Pair begin and end events per thread.  [events] are
    [(is_begin, cat, name, tid, ts)] in record order; an end takes its
    name from the begin it closes. *)
let pair_spans events =
  let stacks = Hashtbl.create 8 in
  List.fold_left
    (fun acc (is_begin, cat, name, tid, ts) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      if is_begin then begin
        Hashtbl.replace stacks tid ((cat, name, ts) :: stack);
        acc
      end
      else
        match stack with
        | (cat, name, t0) :: rest ->
            Hashtbl.replace stacks tid rest;
            { cat; name; dur_us = ts - t0 } :: acc
        | [] -> acc)
    [] events
  |> List.rev

let spans_of_buf buf =
  List.filter_map
    (fun (e : Obs.event) ->
      match e.Obs.kind with
      | Obs.Span_begin -> Some (true, e.Obs.cat, e.Obs.name, e.Obs.tid, e.Obs.ts)
      | Obs.Span_end -> Some (false, e.Obs.cat, e.Obs.name, e.Obs.tid, e.Obs.ts)
      | Obs.Instant | Obs.Sample -> None)
    (Obs.Buf.events buf)
  |> pair_spans

(** Total seconds of the spans satisfying [p]. *)
let span_seconds p spans =
  List.fold_left
    (fun acc s -> if p s then acc +. (float_of_int s.dur_us /. 1e6) else acc)
    0.0 spans

(* --- layer probes ------------------------------------------------------- *)

(** Small fixed cases, affine and gather, for the layers a workload does
    not drive itself.  Their reference statistics are golden entries. *)
let probe_cases =
  [
    ("JACOBI512", Some 256, L.Pipeline.Grouppad_l1);
    ("SU2COR", None, L.Pipeline.Pad_l1);
    ("CGM", Some 20_000, L.Pipeline.Original);
    ("IRR500K", Some 100_000, L.Pipeline.Grouppad_l1_l2);
  ]

let probe_programs () =
  List.map
    (fun (name, n, s) ->
      let p = build ~name ~n in
      (p, s, layout (pass_table ()) s p))
    probe_cases

type sim_probe = { reference_s : float; probe_refs : int }

(** Both backends over the probe cases, each output checked against the
    golden reference statistics; the reference backend is timed. *)
let sim_probe golden tally programs =
  let reference_s = ref 0.0 and refs = ref 0 in
  List.iter
    (fun (p, s, lay) ->
      let k = key "stats" p s in
      let _, fast = simulate_fast (sim_counts ()) p lay in
      let t0 = now () in
      let r, reference = simulate_reference p lay in
      reference_s := !reference_s +. (now () -. t0);
      refs := !refs + r;
      ignore (Golden.expect golden tally k fast);
      ignore (Golden.expect golden tally k reference))
    programs;
  { reference_s = !reference_s; probe_refs = !refs }

type replay_probe = { trace_ns : float; fast_ns : float; reference_ns : float }

(* Accesses, hits and misses per level — what a read-only replay of the
   address stream must reproduce (writes only change write and
   writeback counts). *)
let hit_miss_string stats =
  String.concat " "
    (List.map
       (fun (s : Cs.Stats.t) ->
         Printf.sprintf "%d,%d,%d" s.Cs.Stats.accesses s.Cs.Stats.hits
           s.Cs.Stats.misses)
       stats)

let hit_miss_of_golden g =
  (* "refs=R L1=a,h,m,w,wb L2=..." -> "a,h,m a,h,m" *)
  String.split_on_char ' ' g |> List.tl
  |> List.map (fun lv ->
         match String.split_on_char ',' (List.nth (String.split_on_char '=' lv) 1) with
         | a :: h :: m :: _ -> Printf.sprintf "%s,%s,%s" a h m
         | _ -> "")
  |> String.concat " "

(** [time_median reps f] runs [f] [reps] times: the median of the wall
    times, and the results in run order. *)
let time_median reps f =
  let runs =
    List.init reps (fun _ ->
        let t0 = now () in
        let r = f () in
        (now () -. t0, r))
  in
  (Quantile.median (List.map fst runs), List.map snd runs)

(** The naive trace of the probe cases, then those address arrays
    replayed through each cascade alone, access by access. *)
let replay_probe golden tally programs =
  let t0 = now () in
  let addrs =
    List.map (fun (p, s, lay) -> (key "stats" p s, Interp.trace lay p.program)) programs
  in
  let trace_s = now () -. t0 in
  let n = List.fold_left (fun acc (_, a) -> acc + Array.length a) 0 addrs in
  let geoms = machine.Cs.Machine.geometries in
  let reference () =
    List.map
      (fun (_, a) ->
        let h = Cs.Hierarchy.create geoms in
        Array.iter (fun x -> ignore (Cs.Hierarchy.access h x)) a;
        hit_miss_string (List.map Cs.Level.stats (Cs.Hierarchy.levels h)))
      addrs
  in
  let fast () =
    List.map
      (fun (_, a) ->
        let f = Cs.Fast_sim.create geoms in
        Array.iter (fun x -> ignore (Cs.Fast_sim.access f x)) a;
        hit_miss_string (Cs.Fast_sim.level_stats f))
      addrs
  in
  let expected =
    List.map
      (fun (k, _) -> Option.map hit_miss_of_golden (Golden.find golden k))
      addrs
  in
  let check what got =
    List.iter2
      (fun e g -> ignore (Golden.check tally ~what (e = Some g)))
      expected got
  in
  check "replay reference" (reference ());
  check "replay fast" (fast ());
  let per_ref s = Metric.ratio (s *. 1e9) (float_of_int n) in
  {
    trace_ns = per_ref trace_s;
    reference_ns = per_ref (fst (time_median 3 reference));
    fast_ns = per_ref (fst (time_median 3 fast));
  }

type engine_probe = {
  store_ms : float;
  hit_ms : float;
  idle_frac : float;
  sim_share : float;
  pass_share : float;
}

(** Small jobs with cheap passes, so that cache reads and writes are a
    visible share of each job. *)
let engine_specs =
  List.concat_map
    (fun (name, n) ->
      List.map
        (fun s ->
          E.Job.simulate ~layout:(E.Job.Strategy s)
            (E.Job.Registry { name; n = Some n }))
        [ L.Pipeline.Original; L.Pipeline.Pad_l1; L.Pipeline.Pad_multilevel ])
    [ ("JACOBI512", 64); ("EXPL512", 64); ("SWIM", 64); ("TOMCATV", 65) ]
  |> Array.of_list

(** [Engine.run] with no cache, a cold cache and a warm cache, the three
    interleaved in each repetition, the uncached run first in even
    repetitions and last in odd ones; every run must return the same
    results.  The cost of storing is the median over repetitions of the
    cold run's time minus the uncached run's. *)
let engine_probe ~jobs ~dir tally =
  let specs = engine_specs in
  let n = float_of_int (Array.length specs) in
  let reps = 7 in
  let obs = Obs.Buf.create () in
  let baseline = E.Engine.run ~jobs specs in
  let timed ?cache ?obs () =
    let t0 = now () in
    let r = E.Engine.run ?cache ?obs ~jobs specs in
    let dt = now () -. t0 in
    ignore (Golden.check tally ~what:"engine probe results" (baseline = r));
    dt
  in
  let walls_obs = List.init 2 (fun _ -> timed ~obs ()) in
  let store, warm =
    List.split
      (List.init reps (fun i ->
           let c =
             E.Cache.open_ ~dir:(Filename.concat dir (Printf.sprintf "cache-%d" i))
               ~version:"perfbench" ()
           in
           let cached () =
             let cold = timed ~cache:c () in
             (cold, timed ~cache:c ())
           in
           let none, (cold, warm) =
             if i mod 2 = 0 then
               let none = timed () in
               (none, cached ())
             else
               let cw = cached () in
               (timed (), cw)
           in
           (cold -. none, warm)))
  in
  let spans = spans_of_buf obs in
  let job_s = span_seconds (fun s -> s.cat = "job") spans in
  let ms x = 1000.0 *. x /. n in
  ( {
      store_ms = ms (Quantile.median store);
      hit_ms = ms (Quantile.median warm);
      idle_frac =
        1.0 -. Metric.ratio job_s (float_of_int jobs *. sum walls_obs);
      sim_share =
        Metric.ratio (span_seconds (fun s -> s.name = "sim:run") spans) job_s;
      pass_share =
        Metric.ratio (span_seconds (fun s -> s.cat = "pass") spans) job_s;
    },
    obs )

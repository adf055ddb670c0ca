(* Layer-by-layer benchmark of the reproduction.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe capture
     main.exe sweep --out FILE --seeds 1,2,3 [--seconds S] [--trace 0|1] [--workload W]...
     main.exe compare OLD NEW
     main.exe trajectory FILE --commit C

   Run from the repository root (perfbench/run.sh builds and does so).
   The last line of a workload run is one JSON object: correct,
   attempted, failed and the metrics (end-to-end ones untraced, per-layer
   ones traced).  See perfbench/README.md for the workloads and metrics. *)

open Perfbench_harness
module L = Locality
module Obs = Mlc_obs.Obs
module Json = Mlc_obs.Trace_check.Json

let golden_dir = "perfbench/golden"

let work_root = "perfbench/_work"

let bench_exe = "_build/default/bench/main.exe"

let mlc_exe = "_build/default/bin/mlc.exe"

let now = Layer.now

(* Set-up is repeated and its median reported, so one slow repetition
   does not move [setup_s].  The bench start-up that is paper-fast's
   set-up lasts 0.2 s, so it is repeated more. *)
let setup_reps = 3

let bench_setup_reps = 11

(* Seconds between the calibration units timed while a bench run runs. *)
let calib_period = 1.0

(* The fewest passes over the cases of affine-sim's timed phase: each
   case's time is the median of its executions, which damps the host's
   drift. *)
let case_runs = 3

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* --- workloads ---------------------------------------------------------- *)

(* The registry programs whose subscripts are all affine, and those with
   gather subscripts (table lookups), which affine-sim leaves out. *)
let affine_programs =
  [ "ADI32"; "DOT256"; "ERLE64"; "EXPL512"; "JACOBI512"; "LINPACKD"; "SHAL512";
    "APPBT"; "APPLU"; "APPSP"; "FFTPDE"; "MGRID"; "APSI"; "FPPPP"; "HYDRO2D";
    "SU2COR"; "SWIM"; "TOMCATV"; "TURB3D" ]

let gather_programs = [ "IRR500K"; "BUK"; "CGM"; "EMBAR"; "WAVE5" ]

let workloads = [ "paper-fast"; "affine-sim" ]

(* Worker domains: the bench run uses both cores, affine-sim one. *)
let paper_fast_jobs = 2

type opts = { workload : string; seed : int; seconds : float; trace : bool }

(* What an in-process workload's set-up hands to the timed phase. *)
type prepared = {
  cases : Layer.case array;
  refs : int array;  (** per case; sims fill it when a case runs *)
  build_s : float;
  setup_passes : (string, Layer.pass_stat) Hashtbl.t;
}

(* The counters the cases write into; reset before each batch. *)
let counts = ref (Layer.sim_counts ())

let sim_setup golden tally names () =
  let t0 = now () in
  let programs = List.map (fun name -> Layer.build ~name ~n:None) names in
  let build_s = now () -. t0 in
  List.iter
    (fun (p : Layer.program) ->
      ignore
        (Golden.check tally ~what:(p.name ^ " subscript kind")
           (Layer.has_gather p.program = List.mem p.name gather_programs)))
    programs;
  let setup_passes = Layer.pass_table () in
  (* One case per distinct layout of a program: strategies that leave the
     layout alone would simulate the same addresses again.  The case's
     output is checked against the golden statistics of every strategy
     that shares the layout. *)
  let cells =
    List.concat_map
      (fun p ->
        let distinct = Hashtbl.create 8 in
        List.filter_map
          (fun s ->
            let lay = Layer.layout setup_passes s p in
            let digest = Golden.layout_digest lay in
            ignore (Golden.expect golden tally (Layer.key "layout" p s) digest);
            let id = Layer.key "stats" p s in
            match Hashtbl.find_opt distinct digest with
            | Some ids ->
                ids := id :: !ids;
                None
            | None ->
                let ids = ref [ id ] in
                Hashtbl.replace distinct digest ids;
                Some (p, lay, ids))
          L.Pipeline.all)
      programs
    |> Array.of_list
  in
  let refs = Array.make (Array.length cells) 0 in
  let cases =
    Array.mapi
      (fun i (p, lay, ids) ->
        {
          Layer.id = List.nth !ids (List.length !ids - 1);
          exec =
            (fun () ->
              let r, stats = Layer.simulate_fast !counts p lay in
              refs.(i) <- r;
              fun () -> List.for_all (fun id -> Golden.find golden id = Some stats) !ids);
        })
      cells
  in
  { cases; refs; build_s; setup_passes }

(* --- metrics ------------------------------------------------------------ *)

let m = Metric.make

(* Times of the timed phase are in calibrated seconds (see Calib), as
   the host's own speed swings by up to 2x within minutes; set-up time is
   plain host seconds. *)
let end_to_end ~setup_s ~wall_s ~cpu_s ~refs ~rss =
  [
    m "setup_s" "s" setup_s;
    m "cal_wall_s" "s" wall_s;
    m "cal_cpu_s" "s" cpu_s;
    m "cal_refs_per_s" "1/s" (Metric.ratio refs wall_s);
    m "peak_rss_mb" "MiB" rss;
  ]

let section_names =
  [ "table1"; "figure9"; "figure10"; "figure11"; "figure12"; "figure13"; "tiles";
    "predict"; "ablation" ]

(* Every per-layer metric, in one order for every workload.  A layer the
   workload does not exercise reads 0 (no bench section runs outside
   paper-fast). *)
type layers = {
  case_p90_s : float;
  kernels_build_s : float;
  pass : string -> float * int * int;  (** seconds, calls, decisions *)
  grouppad_max_s : float;
  sim : Layer.sim_counts;
  sim_fast_s : float;
  gather_ns : float;
  reference_ns : float;
  replay : Layer.replay_probe;
  engine : Layer.engine_probe;
  section_s : string -> float;
  overhead : float;
  host_wall_s : float;  (** the timed work in plain host seconds *)
  unit_s : float;  (** median calibration unit *)
}

let per_layer l =
  let f = float_of_int in
  [
    m "case_p90_ms" "ms" (1000.0 *. l.case_p90_s);
    m "kernels.build_s" "s" l.kernels_build_s;
  ]
  @ List.concat_map
      (fun name ->
        let s, calls, decisions = l.pass name in
        [
          m ("pass." ^ name ^ ".s") "s" s;
          m ("pass." ^ name ^ ".calls") "count" (f calls);
          m ("pass." ^ name ^ ".decisions") "count" (f decisions);
        ])
      Layer.pass_names
  @ [
      m "pass.grouppad.max_ms" "ms" (1000.0 *. l.grouppad_max_s);
      m "sim.refs" "count" (f l.sim.Layer.refs);
      m "sim.fast.bulk_segments" "count" (f l.sim.Layer.bulk_segments);
      m "sim.fast.bulk_iterations" "count" (f l.sim.Layer.bulk_iterations);
      m "sim.fast.seq_iterations" "count" (f l.sim.Layer.seq_iterations);
      m "sim.fast.ns_per_ref" "ns"
        (Metric.ratio (l.sim_fast_s *. 1e9) (f l.sim.Layer.refs));
      m "sim.fast.bulk_share" "fraction"
        (Metric.ratio (f l.sim.Layer.bulk_iterations)
           (f (l.sim.Layer.bulk_iterations + l.sim.Layer.seq_iterations)));
      m "sim.fast.iters_per_segment" "count"
        (Metric.ratio (f l.sim.Layer.bulk_iterations) (f l.sim.Layer.bulk_segments));
      m "sim.gather.ns_per_ref" "ns" l.gather_ns;
      m "sim.reference.ns_per_ref" "ns" l.reference_ns;
      m "cachesim.fast.replay_ns_per_ref" "ns" l.replay.Layer.fast_ns;
      m "cachesim.reference.replay_ns_per_ref" "ns" l.replay.Layer.reference_ns;
      m "interp.trace_ns_per_ref" "ns" l.replay.Layer.trace_ns;
      m "engine.cache.store_ms_per_job" "ms" l.engine.Layer.store_ms;
      m "engine.cache.hit_ms_per_job" "ms" l.engine.Layer.hit_ms;
      m "engine.pool_idle_frac" "fraction" l.engine.Layer.idle_frac;
      m "engine.sim_share" "fraction" l.engine.Layer.sim_share;
      m "engine.pass_share" "fraction" l.engine.Layer.pass_share;
    ]
  @ List.map (fun s -> m ("section." ^ s ^ ".s") "s" (l.section_s s)) section_names
  @ [
      m "trace_overhead_frac" "fraction" l.overhead;
      m "host.wall_s" "s" l.host_wall_s;
      m "host.calib_unit_ms" "ms" (1000.0 *. l.unit_s);
    ]

let pass_of_table tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (s : Layer.pass_stat) ->
      (s.Layer.seconds, s.Layer.calls, s.Layer.decisions)
  | None -> (0.0, 0, 0)

let grouppad_max tbl =
  match Hashtbl.find_opt tbl "grouppad" with Some s -> s.Layer.max_s | None -> 0.0

let decisions tbl =
  List.map
    (fun n ->
      let _, _, d = pass_of_table tbl n in
      d)
    Layer.pass_names

let check_trace tally ~dir path =
  let out =
    Child.run ~cwd:"." ~stdout:(Filename.concat dir "trace-check.out")
      ~stderr:(Filename.concat dir "trace-check.err") mlc_exe [ "trace-check"; path ]
  in
  ignore (Golden.check tally ~what:("mlc trace-check " ^ path) (Child.ok out))

(* The trace the run recorded, written as Chrome JSON and validated by
   the CLI's own checker. *)
let write_and_check_trace tally ~dir ~name buf =
  let path = Filename.concat work_root ("trace-" ^ name ^ ".json") in
  let oc = open_out path in
  Obs.Sink.write (Obs.Sink.chrome oc) buf;
  close_out oc;
  check_trace tally ~dir path

(* The gather programs' distinct layouts, each simulated once on the
   fast backend and checked: table-lookup addresses and the per-access
   cascade, where bulk accounting barely applies, so a fast-path change
   meant for affine-sim should leave it alone.  Nanoseconds per
   reference. *)
let gather_probe golden tally =
  let prep = sim_setup golden tally gather_programs () in
  counts := Layer.sim_counts ();
  let t = Layer.timed_phase ~seconds:0.0 ~rng:(Random.State.make [| 0 |]) tally prep.cases in
  Metric.ratio (Layer.batch_wall t *. 1e9) (float_of_int (Array.fold_left ( + ) 0 prep.refs))

(* The fixed layer probes every traced run makes: both simulators on the
   probe cases, the gather programs, the cascades alone, and the
   engine. *)
let probes ~jobs ~dir golden tally =
  let programs = Layer.probe_programs () in
  let sim = Layer.sim_probe golden tally programs in
  let gather_ns = gather_probe golden tally in
  let replay = Layer.replay_probe golden tally programs in
  let engine, ebuf = Layer.engine_probe ~jobs ~dir tally in
  Option.iter (fun buf -> Obs.Buf.merge ~into:buf ebuf) (Obs.current ());
  (sim, gather_ns, replay, engine)

let reference_ns (sim : Layer.sim_probe) =
  Metric.ratio (sim.Layer.reference_s *. 1e9) (float_of_int sim.Layer.probe_refs)

(* --- in-process workloads ----------------------------------------------- *)

let in_process opts ~dir golden tally setup =
  let rng = Random.State.make [| opts.seed |] in
  let buf = Obs.Buf.create () in
  let traced f = if opts.trace then Obs.with_buf buf f else f () in
  let setup_s, preps = Layer.time_median setup_reps (fun () -> traced setup) in
  let prep = List.nth preps (setup_reps - 1) in
  ignore
    (Golden.check tally ~what:"pass decisions repeat across set-ups"
       (List.for_all
          (fun p -> decisions p.setup_passes = decisions prep.setup_passes)
          preps));
  Gc.compact ();
  let total_refs () = float_of_int (Array.fold_left ( + ) 0 prep.refs) in
  if not opts.trace then begin
    let t =
      Layer.timed_phase ~min_runs:case_runs ~seconds:opts.seconds ~rng tally prep.cases
    in
    Printf.eprintf "%s: %d cases, %d passes; host wall %.3f s, calibration unit %.2f ms\n%!"
      opts.workload (Array.length prep.cases) t.Layer.batches (Layer.batch_wall t)
      (1000.0 *. Layer.unit_median t);
    end_to_end ~setup_s ~wall_s:(Layer.batch_wall_cal t) ~cpu_s:(Layer.batch_cpu_cal t)
      ~refs:(total_refs ()) ~rss:(Child.self_peak_rss_mb ())
  end
  else begin
    (* Each case runs once untraced and once traced, the counters of
       each kind of run kept apart. *)
    let counts_u = Layer.sim_counts () and counts_t = Layer.sim_counts () in
    let before traced = counts := if traced then counts_t else counts_u in
    let untraced, traced_pass = Layer.paired_pass ~rng ~buf ~before tally prep.cases in
    ignore
      (Golden.check tally ~what:"sim counts repeat untraced/traced"
         (Layer.same_counts counts_u counts_t));
    let c = Obs.Buf.counter buf in
    ignore
      (Golden.check tally ~what:"program counters match the simulator's"
         (c "sim.refs" = counts_t.Layer.refs
         && c "sim.fast.bulk_segments" = counts_t.Layer.bulk_segments
         && c "sim.fast.bulk_iterations" = counts_t.Layer.bulk_iterations
         && c "sim.fast.seq_iterations" = counts_t.Layer.seq_iterations));
    let sim, gather_ns, replay, engine =
      Obs.with_buf buf (fun () ->
          Obs.with_span ~cat:"probe" "probes" (fun () -> probes ~jobs:1 ~dir golden tally))
    in
    write_and_check_trace tally ~dir ~name:opts.workload buf;
    per_layer
      {
        case_p90_s = Layer.case_p90 untraced;
        kernels_build_s = prep.build_s;
        pass = pass_of_table prep.setup_passes;
        grouppad_max_s = grouppad_max prep.setup_passes;
        sim = counts_u;
        sim_fast_s = Layer.batch_wall untraced;
        gather_ns;
        reference_ns = reference_ns sim;
        replay;
        engine;
        section_s = (fun _ -> 0.0);
        overhead = Layer.pass_overhead untraced traced_pass;
        host_wall_s = Layer.batch_wall untraced;
        unit_s = Layer.unit_median untraced;
      }
  end

(* --- paper-fast --------------------------------------------------------- *)

(* One bench invocation in its own directory under [dir], with the
   runtime settings a user gets: it writes BENCH_engine.json where it
   runs. *)
let bench ?tick ~dir name args =
  let cwd = Filename.concat dir name in
  mkdir_p cwd;
  let stdout = Filename.concat cwd "stdout" in
  let out =
    Child.run ?tick ~cwd ~stdout ~stderr:(Filename.concat cwd "stderr") bench_exe args
  in
  (out, cwd, stdout)

let check_stdout golden tally ~key (out, _, stdout) =
  ignore
    (Golden.check tally ~what:(key ^ " exit status") (Child.ok out)
    && Golden.expect golden tally key (Child.digest_file stdout))

(* Sections shorter than this are left out of the trace overhead: their
   ratio is mostly timer noise. *)
let overhead_min_section_s = 0.5

let paper_fast opts ~dir golden tally =
  let run = ref 0 in
  let fresh name =
    incr run;
    Printf.sprintf "%s-%d-%d" name opts.seed !run
  in
  (* Set-up: process start and the kernel inventory (table1). *)
  let setup_s =
    Quantile.median
      (List.init bench_setup_reps (fun _ ->
           let ((out, _, _) as r) =
             bench ~dir (fresh "table1") [ "fast"; "table1"; "--no-cache" ]
           in
           check_stdout golden tally ~key:"stdout table1" r;
           out.Child.wall))
  in
  let fast ?tick name extra =
    let cwd = Filename.concat dir name in
    let cache = Filename.concat (Sys.getcwd ()) (Filename.concat cwd "cache") in
    bench ?tick ~dir name
      ([ "fast"; "--jobs"; string_of_int paper_fast_jobs; "--cache-dir"; cache ] @ extra)
  in
  (* The host's speed during a bench run: the median of calibration
     units timed once a second while it runs. *)
  let untraced () =
    let units = ref [] and last = ref (now ()) in
    let tick () =
      if now () -. !last >= calib_period then begin
        units := Calib.unit_s () :: !units;
        last := now ()
      end
    in
    let ((out, cwd, _) as r) = fast ~tick (fresh "fast") [] in
    let unit = Quantile.median (if !units = [] then [ Calib.unit_s () ] else !units) in
    check_stdout golden tally ~key:"stdout paper-fast" r;
    let sections, refs = Child.bench_record (Filename.concat cwd "BENCH_engine.json") in
    (out, sections, refs, unit)
  in
  if not opts.trace then begin
    let start = now () in
    let rec timed acc k =
      if k > 0 && not (Layer.another_fits ~start ~done_:k ~seconds:opts.seconds) then acc
      else timed (untraced () :: acc) (k + 1)
    in
    let runs = timed [] 0 in
    let median f = Quantile.median (List.map f runs) in
    Printf.eprintf "paper-fast: %d bench runs; host wall %.3f s, calibration unit %.2f ms\n%!"
      (List.length runs)
      (median (fun (o, _, _, _) -> o.Child.wall))
      (1000.0 *. median (fun (_, _, _, u) -> u));
    end_to_end ~setup_s
      ~wall_s:(median (fun (o, _, _, unit) -> Calib.scale ~unit o.Child.wall))
      ~cpu_s:(median (fun (o, _, _, unit) -> Calib.scale ~unit o.Child.cpu))
      ~refs:(median (fun (_, _, r, _) -> r))
      ~rss:(median (fun (o, _, _, _) -> o.Child.peak_rss_mb))
  end
  else begin
    (* One untraced and one traced bench run; odd seeds run the traced
       one first, so that over a sweep neither kind always runs second. *)
    let trace = Filename.concat work_root "trace-paper-fast-bench.json" in
    let traced () =
      let name = fresh "traced" in
      let out, cwd, stdout =
        fast name [ "--trace"; Filename.concat (Sys.getcwd ()) trace; "--metrics" ]
      in
      let body, counters = Child.split_metrics (Child.read_file stdout) in
      ignore
        (Golden.check tally ~what:"traced bench exit status" (Child.ok out)
        && Golden.expect golden tally "stdout paper-fast"
             (Digest.to_hex (Digest.string body)));
      (fst (Child.bench_record (Filename.concat cwd "BENCH_engine.json")), counters)
    in
    let (out, sections, _, unit), (traced_sections, counters) =
      if opts.seed mod 2 = 1 then
        let t = traced () in
        (untraced (), t)
      else
        let u = untraced () in
        (u, traced ())
    in
    check_trace tally ~dir trace;
    let section_s name = Option.value ~default:0.0 (List.assoc_opt name sections) in
    let spans = Child.trace_spans trace in
    let secs p = Layer.span_seconds p spans in
    let counter k = Option.value ~default:0 (List.assoc_opt k counters) in
    let job_s = secs (fun s -> s.Layer.cat = "job") in
    let section_total =
      secs (fun s -> String.starts_with ~prefix:"section:" s.Layer.name)
    in
    let pass_spans name = List.filter (fun s -> s.Layer.name = "pass:" ^ name) spans in
    let pass name =
      ( Layer.span_seconds (fun _ -> true) (pass_spans name),
        List.length (pass_spans name),
        counter ("pass." ^ name ^ ".decisions") )
    in
    let grouppad_max_s =
      List.fold_left
        (fun acc s -> Float.max acc (float_of_int s.Layer.dur_us /. 1e6))
        0.0 (pass_spans "grouppad")
    in
    let t0 = now () in
    List.iter
      (fun (e : Mlc_kernels.Registry.entry) -> ignore (e.Mlc_kernels.Registry.build ()))
      Mlc_kernels.Registry.all;
    let build_s = now () -. t0 in
    let sim, gather_ns, replay, engine = probes ~jobs:paper_fast_jobs ~dir golden tally in
    per_layer
      {
        case_p90_s = Quantile.p90 (List.map section_s section_names);
        kernels_build_s = build_s;
        pass;
        grouppad_max_s;
        sim =
          {
            Layer.refs = counter "sim.refs";
            bulk_segments = counter "sim.fast.bulk_segments";
            bulk_iterations = counter "sim.fast.bulk_iterations";
            seq_iterations = counter "sim.fast.seq_iterations";
          };
        sim_fast_s = secs (fun s -> s.Layer.name = "sim:run");
        gather_ns;
        reference_ns = reference_ns sim;
        replay;
        engine =
          {
            engine with
            Layer.idle_frac =
              1.0 -. Metric.ratio job_s (float_of_int paper_fast_jobs *. section_total);
            sim_share = Metric.ratio (secs (fun s -> s.Layer.name = "sim:run")) job_s;
            pass_share = Metric.ratio (secs (fun s -> s.Layer.cat = "pass")) job_s;
          };
        section_s;
        overhead =
          Layer.overhead ~min_s:overhead_min_section_s
            (List.filter_map
               (fun (name, u) -> Option.map (fun t -> (u, t)) (List.assoc_opt name traced_sections))
               sections);
        host_wall_s = out.Child.wall;
        unit_s = unit;
      }
  end

let run_workload opts =
  if not (List.mem opts.workload workloads) then begin
    Printf.eprintf "unknown workload %s (known: %s)\n" opts.workload
      (String.concat ", " workloads);
    exit 2
  end;
  List.iter
    (fun exe -> if not (Sys.file_exists exe) then failwith (exe ^ " is not built"))
    [ bench_exe; mlc_exe ];
  let dir =
    Filename.concat work_root (Printf.sprintf "run-%s-%d" opts.workload (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  let tally = Golden.tally () in
  let metrics =
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
        let golden = Golden.load golden_dir in
        match opts.workload with
        | "paper-fast" -> paper_fast opts ~dir golden tally
        | _ -> in_process opts ~dir golden tally (sim_setup golden tally affine_programs))
  in
  Printf.eprintf "failed_frac %g (%d of %d checks)\n%!"
    (Metric.ratio (float_of_int tally.Golden.failed)
       (float_of_int tally.Golden.attempted))
    tally.Golden.failed tally.Golden.attempted;
  print_endline
    (Metric.result_json ~attempted:(max 1 tally.Golden.attempted)
       ~failed:tally.Golden.failed metrics)

(* --- capture: goldens at the commit that introduced the benchmark ------- *)

let capture () =
  let golden = Golden.create () in
  let add k v = Golden.add golden k v in
  let passes = Layer.pass_table () in
  let layout_of p s =
    let lay = Layer.layout passes s p in
    let d = Golden.layout_digest lay in
    let whole = L.Pipeline.layout_for Layer.machine s p.Layer.program in
    if d <> Golden.layout_digest whole then
      failwith ("pass-by-pass layout differs from Pipeline.layout_for: " ^ p.Layer.name);
    add (Layer.key "layout" p s) d;
    lay
  in
  let stats_of p s lay =
    let _, fast = Layer.simulate_fast (Layer.sim_counts ()) p lay in
    let _, reference = Layer.simulate_reference p lay in
    if fast <> reference then
      failwith ("fast and reference simulators disagree: " ^ p.Layer.name);
    add (Layer.key "stats" p s) reference
  in
  List.iter
    (fun (e : Mlc_kernels.Registry.entry) ->
      let p = Layer.build ~name:e.Mlc_kernels.Registry.name ~n:None in
      Printf.eprintf "capture %s\n%!" p.Layer.name;
      List.iter (fun s -> stats_of p s (layout_of p s)) L.Pipeline.all)
    Mlc_kernels.Registry.all;
  List.iter
    (fun (name, n, s) ->
      let p = Layer.build ~name ~n in
      stats_of p s (layout_of p s))
    Layer.probe_cases;
  let dir = Filename.concat work_root "capture" in
  rm_rf dir;
  mkdir_p dir;
  let digest args =
    let stdout = Filename.concat dir "stdout" in
    let out =
      Child.run ~cwd:dir ~stdout ~stderr:(Filename.concat dir "stderr") bench_exe args
    in
    if not (Child.ok out) then failwith "bench run failed";
    Child.digest_file stdout
  in
  add "stdout table1" (digest [ "fast"; "table1"; "--no-cache" ]);
  add "stdout paper-fast"
    (digest [ "fast"; "--jobs"; string_of_int paper_fast_jobs; "--no-cache" ]);
  rm_rf dir;
  List.iter
    (fun kind ->
      Golden.save golden ~prefix:(kind ^ " ") (Filename.concat golden_dir (kind ^ ".txt")))
    [ "layout"; "stats"; "stdout" ]

(* --- sweep, compare, trajectory ----------------------------------------- *)

(* Appends JSON lines [{"workload", "seed", "trace", "result"}] to [out];
   the workloads alternate within each seed, so a slow spell of the
   machine does not land on one workload only. *)
let sweep ~out ~seeds ~seconds ~trace ~wanted =
  let dir = Filename.concat work_root "sweep" in
  mkdir_p dir;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 out in
  let stdout = Filename.concat dir "stdout" and stderr = Filename.concat dir "stderr" in
  List.iter
    (fun seed ->
      List.iter
        (fun w ->
          let o =
            Child.run ~cwd:"." ~stdout ~stderr Sys.executable_name
              [ "--workload"; w; "--seed"; string_of_int seed;
                "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0") ]
          in
          Printf.eprintf "%s seed %d: %.1fs %s\n%!" w seed o.Child.wall
            (if Child.ok o then "ok" else "FAILED");
          (* A run that exited with an error leaves a null result, so
             that [compare] counts it. *)
          let result =
            match List.rev (String.split_on_char '\n' (String.trim (Child.read_file stdout))) with
            | last :: _ when Child.ok o -> last
            | _ -> "null"
          in
          Printf.fprintf oc "{\"workload\": \"%s\", \"seed\": %d, \"trace\": %d, \"result\": %s}\n%!"
            w seed (if trace then 1 else 0) result)
        wanted)
    seeds;
  close_out oc

(* The runs of a sweep's output, in file order: workload, failed checks
   (-1 for a run that exited with an error) and metric values. *)
let runs path =
  Child.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         let r = Json.parse line in
         match (Child.field "workload" r, Child.field "result" r) with
         | Some (Json.String w), Some result ->
             let metrics =
               match Child.field "metrics" result with
               | Some (Json.Obj ms) ->
                   List.filter_map
                     (fun (name, v) ->
                       Option.map (fun x -> (name, x)) (Child.number_opt (Child.field "value" v)))
                     ms
               | _ -> []
             in
             let failed =
               match Child.field "failed" result with Some (Json.Int n) -> n | _ -> -1
             in
             Some (w, failed, metrics)
         | _ -> None)

(* (workload, metric) -> values in file order. *)
let values runs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (w, _, ms) ->
      List.iter
        (fun (name, x) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl (w, name)) in
          Hashtbl.replace tbl (w, name) (prev @ [ x ]))
        ms)
    runs;
  tbl

let sorted_keys tbl = List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* [(name, (lower_is_better, bound))] of BENCHMARK.json's end-to-end
   metrics. *)
let bounds () =
  match Child.field "end_to_end" (Json.parse (Child.read_file "BENCHMARK.json")) with
  | Some (Json.List l) ->
      List.filter_map
        (fun e ->
          match (Child.field "name" e, Child.field "better" e) with
          | Some (Json.String n), Some (Json.String b) ->
              Some (n, (b = "lower", Child.number (Child.field "bound" e)))
          | _ -> None)
        l
  | _ -> []

(* Per workload: runs, and runs with failed checks or an error exit. *)
let run_counts runs w =
  let mine = List.filter (fun (w', _, _) -> w' = w) runs in
  (List.length mine, List.length (List.filter (fun (_, f, _) -> f <> 0) mine))

let compare_files old_path new_path =
  let old_runs = runs old_path and new_runs = runs new_path in
  let old_v = values old_runs and new_v = values new_runs in
  let bounds = bounds () in
  let workloads =
    List.sort_uniq compare (List.map (fun (w, _, _) -> w) (old_runs @ new_runs))
  in
  List.iter
    (fun w ->
      let on, of_ = run_counts old_runs w and nn, nf = run_counts new_runs w in
      Printf.printf "%-14s old: %d runs, %d failed   new: %d runs, %d failed%s\n" w on of_
        nn nf
        (if nf > 0 then "   NEW RUNS FAILED CHECKS: verdicts read failed" else ""))
    workloads;
  Printf.printf "\n%-14s %-12s %11s %11s %11s %11s %11s %11s %8s %6s  %s\n" "workload"
    "metric" "old median" "old q1" "old q3" "new median" "new q1" "new q3" "delta" "bound"
    "verdict";
  List.iter
    (fun ((w, name) as k) ->
      match (List.assoc_opt name bounds, Hashtbl.find_opt new_v k) with
      | None, _ -> ()
      | Some (_, bound), None ->
          let ov = Hashtbl.find old_v k in
          let oq1, oq3 = Quantile.quartiles ov in
          Printf.printf "%-14s %-12s %11.5g %11.5g %11.5g %11s %11s %11s %8s %5.0f%%  missing\n" w
            name (Quantile.median ov) oq1 oq3 "-" "-" "-" "-" (100.0 *. bound)
      | Some (lower_is_better, bound), Some nv ->
          let ov = Hashtbl.find old_v k in
          let om = Quantile.median ov and nm = Quantile.median nv in
          let oq1, oq3 = Quantile.quartiles ov and nq1, nq3 = Quantile.quartiles nv in
          let delta = Metric.ratio (nm -. om) (Float.abs om) in
          let verdict =
            if snd (run_counts new_runs w) > 0 then "failed"
            else Compare.verdict ~lower_is_better ~bound ~old_values:ov ~new_values:nv
          in
          Printf.printf "%-14s %-12s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %+7.1f%% %5.0f%%  %s\n"
            w name om oq1 oq3 nm nq1 nq3 (100.0 *. delta) (100.0 *. bound) verdict)
    (sorted_keys old_v)

(* One line of perfbench/trajectory.jsonl: per workload and metric, the
   median and quartiles of a sweep, with the machine it ran on. *)
let trajectory path ~commit =
  let v = values (runs path) in
  let workloads = List.sort_uniq compare (List.map fst (sorted_keys v)) in
  let stats w name =
    let xs = Hashtbl.find v (w, name) in
    let q1, q3 = Quantile.quartiles xs in
    Printf.sprintf "\"%s\": {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}" name
      (Metric.number (Quantile.median xs)) (Metric.number q1) (Metric.number q3)
      (List.length xs)
  in
  let workload w =
    let names = List.filter_map (fun (w', n) -> if w' = w then Some n else None) (sorted_keys v) in
    Printf.sprintf "\"%s\": {%s}" w (String.concat ", " (List.map (stats w) names))
  in
  let t = Unix.gmtime (Unix.time ()) in
  Printf.printf
    "{\"commit\": \"%s\", \"date\": \"%04d-%02d-%02d\", \"nproc\": %d, \"ocaml\": \"%s\", \"workloads\": {%s}}\n"
    commit (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1) t.Unix.tm_mday
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (String.concat ", " (List.map workload workloads))

(* --- command line ------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe capture\n\
    \       main.exe sweep --out FILE --seeds N,N,... [--seconds S] [--trace 0|1]\n\
    \                  [--workload W]...\n\
    \       main.exe compare OLD NEW\n\
    \       main.exe trajectory FILE --commit C";
  exit 2

let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "capture" ] -> capture ()
  | [ "compare"; a; b ] -> compare_files a b
  | [ "trajectory"; f; "--commit"; c ] -> trajectory f ~commit:c
  | "sweep" :: rest ->
      let out = ref None and seeds = ref [] and seconds = ref 10 in
      let trace = ref false and wanted = ref [] in
      let rec go = function
        | [] -> ()
        | "--out" :: f :: r -> out := Some f; go r
        | "--seeds" :: s :: r ->
            seeds := List.map int_arg (String.split_on_char ',' s);
            go r
        | "--seconds" :: s :: r -> seconds := int_arg s; go r
        | "--trace" :: t :: r -> trace := t = "1"; go r
        | "--workload" :: w :: r -> wanted := !wanted @ [ w ]; go r
        | _ -> usage ()
      in
      go rest;
      (match !out with
      | Some out when !seeds <> [] ->
          sweep ~out ~seeds:!seeds ~seconds:!seconds ~trace:!trace
            ~wanted:(if !wanted = [] then workloads else !wanted)
      | _ -> usage ())
  | args ->
      let workload = ref None and seed = ref 0 in
      let seconds = ref 10.0 and trace = ref false in
      let rec go = function
        | [] -> ()
        | "--workload" :: w :: r -> workload := Some w; go r
        | "--seed" :: s :: r -> seed := int_arg s; go r
        | "--seconds" :: s :: r -> seconds := float_of_int (int_arg s); go r
        | "--trace" :: ("0" | "1" as t) :: r -> trace := t = "1"; go r
        | _ -> usage ()
      in
      go args;
      (match !workload with
      | Some workload ->
          run_workload { workload; seed = !seed; seconds = !seconds; trace = !trace }
      | None -> usage ())

(* The benchmark harness's own arithmetic and checks.  Expected
   quantiles are Python's: statistics.quantiles(xs, n=4) and
   statistics.quantiles(xs, n=10)[8]. *)

open Perfbench_harness
module L = Locality

let close = Alcotest.(check (float 1e-12))

let quantiles () =
  let cases =
    [
      ([ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ], (2.75, 8.25), 9.9, 5.5);
      ([ 3.5; 1.25; 9.0; 2.0 ], (1.4375, 7.625), 11.75, 2.75);
      ([ 5.0; 1.0 ], (0.0, 6.0), 7.8, 3.0);
      ([ 0.12; 0.11; 0.15; 0.13; 0.19; 0.10; 0.14 ], (0.11, 0.15), 0.198, 0.13);
    ]
  in
  List.iter
    (fun (xs, (q1, q3), p90, med) ->
      let g1, g3 = Quantile.quartiles xs in
      close "q1" q1 g1;
      close "q3" q3 g3;
      close "p90" p90 (Quantile.p90 xs);
      close "median" med (Quantile.median xs);
      close "middle quartile is the median" med (List.nth (Quantile.quantiles ~n:4 xs) 1))
    cases;
  close "spread" ((8.25 -. 2.75) /. 5.5)
    (Quantile.spread [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]);
  Alcotest.check_raises "no data" (Invalid_argument "Quantile.median: no data")
    (fun () -> ignore (Quantile.median []))

let names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "wall_s"; "pass.intra-pad.s"; "sim.fast.ns_per_ref"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metric.valid_name n))
    [ ""; "_wall"; ".s"; "wall s"; "wall/s"; "é"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Metric.valid_unit u))
    [ "ms"; "1/s"; "%"; "MiB"; "fraction" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Metric.valid_unit u))
    [ ""; "m s"; "seconds_per_call_"; "µs" ];
  Alcotest.check_raises "bad name" (Invalid_argument "Metric: invalid name a b")
    (fun () -> ignore (Metric.make "a b" "s" 1.0));
  Alcotest.check_raises "nan" (Invalid_argument "Metric: x is not finite")
    (fun () -> ignore (Metric.make "x" "s" Float.nan));
  Alcotest.check_raises "repeated"
    (Invalid_argument "Metric.result_json: repeated metric name") (fun () ->
      ignore
        (Metric.result_json ~attempted:1 ~failed:0
           [ Metric.make "x" "s" 1.0; Metric.make "x" "s" 2.0 ]));
  List.iter
    (fun v -> close (string_of_float v) v (float_of_string (Metric.number v)))
    [ 0.1; 1.0 /. 3.0; 123456.0; 2.5e-7; 1e20 ];
  Alcotest.(check string) "result line"
    "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"wall_s\": \
     {\"value\": 1.25, \"unit\": \"s\"}}}"
    (Metric.result_json ~attempted:3 ~failed:1 [ Metric.make "wall_s" "s" 1.25 ])

(* One good case, one whose golden entry is perturbed and one that
   raises: the run finishes, and the last two count as failed. *)
let perturbed_golden () =
  let p = Layer.build ~name:"JACOBI512" ~n:(Some 64) in
  let s = L.Pipeline.Grouppad_l1 in
  let lay = Layer.layout (Layer.pass_table ()) s p in
  let golden = Golden.create () in
  let good = Layer.key "stats" p s in
  let _, reference = Layer.simulate_reference p lay in
  Golden.add golden good reference;
  Golden.add golden "perturbed" (reference ^ "1");
  let case id =
    {
      Layer.id;
      exec =
        (fun () ->
          let _, stats = Layer.simulate_fast (Layer.sim_counts ()) p lay in
          fun () -> Golden.find golden id = Some stats);
    }
  in
  let raising = { Layer.id = "raises"; exec = (fun () -> failwith "boom") } in
  let tally = Golden.tally () in
  let t =
    Layer.timed_phase ~seconds:0.0 ~rng:(Random.State.make [| 1 |]) tally
      [| case good; case "perturbed"; raising |]
  in
  Alcotest.(check int) "attempted" 3 tally.Golden.attempted;
  Alcotest.(check int) "failed" 2 tally.Golden.failed;
  Alcotest.(check int) "one pass" 1 t.Layer.batches;
  let layout_key = Layer.key "layout" p s in
  Alcotest.(check bool) "missing entry fails" false
    (Golden.expect golden tally layout_key (Golden.layout_digest lay));
  let packed = Mlc_ir.Layout.initial p.Layer.program in
  Golden.add golden layout_key (Golden.layout_digest packed);
  Alcotest.(check bool) "layout digest mismatch fails" false
    (Golden.expect golden tally layout_key (Golden.layout_digest lay));
  Alcotest.(check int) "both counted" 4 tally.Golden.failed

(* Each case runs [min_runs] times when no time is asked for, a pass
   more is run only when it is predicted to end in time, and the trace
   overhead is a median of per-pair ratios. *)
let repeats_and_overhead () =
  let tally = Golden.tally () in
  let case id = { Layer.id; exec = (fun () -> fun () -> true) } in
  let t =
    Layer.timed_phase ~min_runs:3 ~seconds:0.0 ~rng:(Random.State.make [| 2 |]) tally
      [| case "a"; case "b" |]
  in
  Alcotest.(check (list int)) "three runs each" [ 3; 3 ]
    (Array.to_list (Array.map List.length t.Layer.walls));
  Alcotest.(check int) "checked every run" 6 tally.Golden.attempted;
  let start = Layer.now () -. 1.0 in
  Alcotest.(check bool) "another pass fits" true
    (Layer.another_fits ~start ~done_:1 ~seconds:10.0);
  Alcotest.(check bool) "another pass overruns" false
    (Layer.another_fits ~start ~done_:1 ~seconds:1.5);
  Alcotest.(check bool) "nothing run yet" false
    (Layer.another_fits ~start ~done_:0 ~seconds:10.0);
  close "median ratio" 0.1 (Layer.overhead [ (1.0, 1.1); (2.0, 2.2); (4.0, 4.8) ]);
  close "short pairs left out" 0.05
    (Layer.overhead ~min_s:0.5 [ (1.0, 1.1); (2.0, 2.0); (0.001, 1.0) ]);
  close "no pairs" 0.0 (Layer.overhead [])

(* The calibration unit is frozen: its work and its scaling do not
   change, or calibrated times stop comparing across commits. *)
let calibration () =
  Alcotest.(check int) "calibration hits" 370776 (Calib.run Calib.grid);
  close "scale" 2.0 (Calib.scale ~unit:0.02 4.0);
  let t = Layer.timing 2 1 in
  t.Layer.walls.(0) <- [ 1.0; 3.0; 2.0 ];
  t.Layer.units.(0) <- [ 0.01; 0.03; 0.01 ];
  t.Layer.walls.(1) <- [ 4.0 ];
  t.Layer.units.(1) <- [ 0.02 ];
  (* Case 0: scaled 1, 1, 2 (median 1); case 1: scaled 2. *)
  close "calibrated pass" 3.0 (Layer.batch_wall_cal t);
  close "plain pass" 6.0 (Layer.batch_wall t)

let verdicts () =
  let v ?(lower_is_better = true) old_values new_values =
    Compare.verdict ~lower_is_better ~bound:0.1 ~old_values ~new_values
  in
  let check name expected got = Alcotest.(check string) name expected got in
  (* Old runs: median 10, quartiles 9.9 and 10.1 (spread 0.02). *)
  let old = [ 9.8; 9.9; 9.9; 10.0; 10.0; 10.0; 10.1; 10.1; 10.2 ] in
  let scaled k = List.map (( *. ) k) old in
  check "worse beyond the bound" "worse" (v old (scaled 1.15 @ [ 9.0 ]));
  check "better beyond the bound" "better" (v old (scaled 0.85 @ [ 11.0 ]));
  check "better beyond the spread, within the bound" "unresolved"
    (v old (scaled 0.95 @ [ 11.0 ]));
  check "within noise" "unresolved" (v old (scaled 0.99));
  check "higher is better" "better" (v ~lower_is_better:false old (scaled 1.15 @ [ 9.0 ]));
  (* Old runs spread 0.4, wider than the bound. *)
  let wide = [ 6.0; 8.0; 10.0; 12.0; 14.0 ] in
  check "overlapping, spread wider than bound" "unresolved"
    (v wide [ 5.0; 7.0; 9.0; 11.0; 13.0 ]);
  check "every new run better" "better" (v wide [ 3.0; 3.5; 4.0; 4.5; 5.0 ]);
  check "every new run worse" "worse" (v wide [ 15.0; 16.0; 17.0; 18.0; 19.0 ]);
  check "every run better, too few runs" "unresolved" (v wide [ 3.0; 4.0 ])

let () =
  Alcotest.run "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "quantiles match Python" `Quick quantiles;
          Alcotest.test_case "metric names and result line" `Quick names;
          Alcotest.test_case "perturbed golden counts as failed" `Quick perturbed_golden;
          Alcotest.test_case "case repeats and trace overhead" `Quick repeats_and_overhead;
          Alcotest.test_case "compare verdicts" `Quick verdicts;
          Alcotest.test_case "calibrated times" `Quick calibration;
        ] );
    ]

(* The combined pipeline: never illegal, decisions logged, and on the
   kernel suite it never loses to the untouched program by more than
   noise while winning clearly on the conflict-ridden ones. *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality

let machine = Cs.Machine.ultrasparc

let check_bool = Alcotest.(check bool)

let cycles layout p = (Interp.run machine layout p).Interp.cycles

let test_never_hurts_kernel_suite () =
  List.iter
    (fun (label, p) ->
      let r = L.Compiler.optimize machine p in
      let before = cycles (Layout.initial p) p in
      let after = cycles r.L.Compiler.layout r.L.Compiler.program in
      check_bool
        (Printf.sprintf "%s: %.3e -> %.3e" label before after)
        true
        (after <= before *. 1.02))
    [
      ("jacobi", K.Livermore.jacobi 200);
      ("expl", K.Livermore.expl 200);
      ("adi", K.Livermore.adi 200);
      ("shal", K.Livermore.shal 100);
      ("figure1", K.Paper_examples.figure1 ~n:200 ~m:200);
      ("figure2", K.Paper_examples.figure2 256);
      ("tomcatv", K.Spec.tomcatv 129);
    ]

let test_wins_big_on_conflicts () =
  let p = K.Paper_examples.figure2 256 in
  let r = L.Compiler.optimize machine p in
  let before = cycles (Layout.initial p) p in
  let after = cycles r.L.Compiler.layout r.L.Compiler.program in
  check_bool "at least 2x better on the colliding program" true
    (after *. 2.0 < before)

let test_permutes_figure1 () =
  (* figure 1's original loop order is memory-hostile; the pipeline must
     fix it *)
  let p = K.Paper_examples.figure1 ~n:128 ~m:128 in
  let r = L.Compiler.optimize machine p in
  let nest = List.hd r.L.Compiler.program.Program.nests in
  Alcotest.(check (list string)) "j innermost" [ "i"; "j" ] (Nest.vars nest);
  check_bool "logged" true
    (List.exists
       (fun l -> String.length l >= 8 && String.sub l 0 8 = "permuted")
       r.L.Compiler.log)

let test_fuses_figure2 () =
  let p = K.Paper_examples.figure2 960 in
  let r = L.Compiler.optimize machine p in
  Alcotest.(check int) "one nest after fusion" 1
    (List.length r.L.Compiler.program.Program.nests)

let test_accesses_preserved_without_scalar_replacement () =
  (* permutation + fusion + padding never change the multiset of array
     elements touched *)
  let p = K.Livermore.expl 64 in
  let r = L.Compiler.optimize machine p in
  let relative layout p =
    (* addresses relative to each array's base so layouts compare *)
    let t = Interp.trace layout p in
    Array.sort compare t;
    Array.length t
  in
  Alcotest.(check int) "same reference count"
    (relative (Layout.initial p) p)
    (relative r.L.Compiler.layout r.L.Compiler.program)

let test_passes_select_transformations () =
  (* no permute pass: figure 1 keeps its memory-hostile loop order *)
  let p = K.Paper_examples.figure1 ~n:64 ~m:64 in
  let r =
    L.Compiler.optimize ~passes:(L.Pipeline.passes L.Pipeline.Grouppad_l1_l2) machine p
  in
  let nest = List.hd r.L.Compiler.program.Program.nests in
  Alcotest.(check (list string)) "loop order untouched" [ "j"; "i" ] (Nest.vars nest)

(* The default pipeline's layout is the GROUPPAD+L2MAXPAD strategy applied
   to the program the loop passes return, field for field. *)
let test_default_layout_is_strategy_layout () =
  List.iter
    (fun (e : K.Registry.entry) ->
      let r = L.Compiler.optimize machine (e.K.Registry.build ()) in
      let program = r.L.Compiler.program in
      let expected = L.Pipeline.layout_for machine L.Pipeline.Grouppad_l1_l2 program in
      let got = r.L.Compiler.layout in
      Alcotest.(check (list string))
        (e.K.Registry.name ^ " arrays")
        (Layout.array_names expected) (Layout.array_names got);
      let field what f =
        List.iter
          (fun v ->
            Alcotest.(check int)
              (Printf.sprintf "%s %s %s" e.K.Registry.name v what)
              (f expected v) (f got v))
          (Layout.array_names expected)
      in
      field "pad_before" Layout.pad_before;
      field "intra_pad" Layout.intra_pad;
      field "base" Layout.base;
      Alcotest.(check int)
        (e.K.Registry.name ^ " total_bytes")
        (Layout.total_bytes expected) (Layout.total_bytes got))
    K.Registry.all

let test_report_renders () =
  let out = L.Compiler.report machine (K.Livermore.jacobi 128) in
  check_bool "mentions improvement" true
    (let needle = "model-time improvement" in
     let n = String.length out and m = String.length needle in
     let rec go i = i + m <= n && (String.sub out i m = needle || go (i + 1)) in
     go 0)

let () =
  Alcotest.run "compiler"
    [
      ( "pipeline",
        [
          Alcotest.test_case "never hurts the suite" `Slow test_never_hurts_kernel_suite;
          Alcotest.test_case "wins big on conflicts" `Quick test_wins_big_on_conflicts;
          Alcotest.test_case "permutes figure 1" `Quick test_permutes_figure1;
          Alcotest.test_case "fuses figure 2" `Quick test_fuses_figure2;
          Alcotest.test_case "accesses preserved" `Quick
            test_accesses_preserved_without_scalar_replacement;
          Alcotest.test_case "options" `Quick test_passes_select_transformations;
          Alcotest.test_case "default layout = strategy layout" `Quick
            test_default_layout_is_strategy_layout;
          Alcotest.test_case "report" `Quick test_report_renders;
        ] );
    ]

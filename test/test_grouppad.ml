(* Differential oracle for GROUPPAD's table-driven candidate search.

   [reference_apply] is the list-based search GROUPPAD used before: it
   builds a [Layout.set_pad_before] layout for every candidate pad and
   scores it by re-deriving every dot, group and arc through
   [conflict_count] and [preserved_references].  [Grouppad.apply] scores
   the same candidates from integer tables; the two must choose the same
   layout, field for field.

   Case counts scale with QCHECK_COUNT (the nightly CI job sets it to
   2000). *)

module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality
open Mlc_ir

let qcheck_count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let reference_apply ?candidate_step ~size ~line program layout =
  let step =
    match candidate_step with
    | Some s -> max line s
    | None -> max line (size / 128 / line * line)
  in
  let candidates =
    let rec go p acc = if p >= size then List.rev acc else go (p + step) (p :: acc) in
    go 0 []
  in
  List.fold_left
    (fun layout v ->
      let best = ref None in
      List.iter
        (fun pad ->
          let candidate = Layout.set_pad_before layout v pad in
          let conflicts = L.Grouppad.conflict_count ~size ~line program candidate in
          let preserved = L.Grouppad.preserved_references ~size program candidate in
          let key = (conflicts, -preserved, pad) in
          match !best with
          | Some (best_key, _) when compare key best_key >= 0 -> ()
          | _ -> best := Some (key, candidate))
        candidates;
      match !best with Some (_, l) -> l | None -> layout)
    layout (Layout.array_names layout)

(* Field-for-field differences between two layouts of one program. *)
let layout_diff a b =
  let field name f =
    let x = f a name and y = f b name in
    if x = y then [] else [ Printf.sprintf "%s %d <> %d" name x y ]
  in
  List.concat_map
    (fun name ->
      field name Layout.pad_before @ field name Layout.intra_pad
      @ field name Layout.base)
    (Layout.array_names a)
  @
  if Layout.total_bytes a = Layout.total_bytes b then []
  else
    [ Printf.sprintf "total_bytes %d <> %d" (Layout.total_bytes a) (Layout.total_bytes b) ]

(* The L1 geometries of the two machines and one L2 geometry. *)
let geometries =
  [
    ("ultrasparc L1", Cs.Machine.s1 Cs.Machine.ultrasparc, 32);
    ("alpha L1", Cs.Machine.s1 Cs.Machine.alpha21164, 32);
    ("L2 128K/64B", 128 * 1024, 64);
  ]

let steps = [ None; Some 64; Some 1000 ]

let step_name = function None -> "default" | Some s -> string_of_int s

(* Seeded sizes are drawn from half a program's paper size up to that
   size (the size its registry [build] uses): every program builds there,
   and the array bases move with the size. *)
let paper_size = function
  | "ADI32" -> 256 | "DOT256" -> 256_000 | "ERLE64" -> 64 | "EXPL512" -> 512
  | "IRR500K" -> 500_000 | "JACOBI512" -> 512 | "LINPACKD" -> 256
  | "SHAL512" -> 512 | "APPBT" | "APPLU" | "APPSP" | "MGRID" | "TURB3D" -> 64
  | "BUK" | "EMBAR" -> 1_000_000 | "CGM" -> 75_000 | "FFTPDE" -> 262_144
  | "APSI" -> 128 | "FPPPP" -> 2048 | "HYDRO2D" | "SWIM" | "WAVE5" -> 512
  | "SU2COR" -> 256 | "TOMCATV" -> 257
  | name -> failwith ("no paper size for " ^ name)

type case = {
  entry : K.Registry.entry;
  n : int option;  (* [None]: the registry's default build *)
  geometry : string * int * int;
  step : int option;
  intra : bool;  (* run INTRA-PAD first, as the pipeline does *)
}

let print_case c =
  let g, _, _ = c.geometry in
  Printf.sprintf "%s n=%s %s step=%s intra=%b" c.entry.K.Registry.name
    (match c.n with Some n -> string_of_int n | None -> "default")
    g
    (step_name c.step) c.intra

let gen_case =
  QCheck.Gen.(
    let* entry = oneofl K.Registry.all in
    let d = paper_size entry.K.Registry.name in
    let* n = int_range (max 2 (d / 2)) d in
    let n = Some n in
    let* geometry = oneofl geometries in
    let* step = oneofl steps in
    let* intra = bool in
    return { entry; n; geometry; step; intra })

let run_case c =
  let program =
    match (c.n, c.entry.K.Registry.build_sized) with
    | Some n, Some f -> f n
    | _ -> c.entry.K.Registry.build ()
  in
  let _, size, line = c.geometry in
  let layout = Layout.initial program in
  let layout =
    if c.intra then L.Intra_pad.apply ~size ~line program layout else layout
  in
  let candidate_step = c.step in
  layout_diff
    (reference_apply ?candidate_step ~size ~line program layout)
    (L.Grouppad.apply ?candidate_step ~size ~line program layout)

let prop_matches_reference =
  QCheck.Test.make ~name:"Grouppad.apply = list-based reference search"
    ~count:(qcheck_count 20)
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      match run_case c with
      | [] -> true
      | diffs -> QCheck.Test.fail_report (String.concat "; " diffs))

(* Every registry program at its default size; geometries and steps
   cycle so that each of the nine combinations meets several programs. *)
let test_registry () =
  List.iteri
    (fun i entry ->
      let geometry = List.nth geometries (i mod List.length geometries) in
      let step = List.nth steps (i / List.length geometries mod List.length steps) in
      let c =
        { entry; n = None; geometry; step; intra = true }
      in
      Alcotest.(check (list string)) (print_case c) [] (run_case c))
    K.Registry.all

let () =
  Alcotest.run "grouppad"
    [
      ("registry", [ Alcotest.test_case "table search = reference" `Slow test_registry ]);
      ("oracle", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
    ]

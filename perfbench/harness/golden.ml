(* Golden outputs captured at the commit that introduced the benchmark,
   and the tally of checks made against them.

   A golden file holds one entry per line, [key<TAB>value].  Keys:
   - [layout PROGRAM N STRATEGY]: digest of the layout the strategy's
     passes compute ([N] is [default] for the registry size);
   - [stats PROGRAM N STRATEGY]: per-level counters of the reference
     simulator on that layout;
   - [stdout NAME]: digest of a bench invocation's standard output. *)

open Mlc_ir
module Cs = Mlc_cachesim

type t = (string, string) Hashtbl.t

let create () : t = Hashtbl.create 2048

let add (t : t) key value = Hashtbl.replace t key value

let find (t : t) key = Hashtbl.find_opt t key

let load_file (t : t) path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          match String.index_opt line '\t' with
          | Some i ->
              add t (String.sub line 0 i)
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> if line <> "" then failwith ("Golden: malformed line in " ^ path)
        done
      with End_of_file -> ())

(** Every [*.txt] file of [dir]. *)
let load dir =
  let t = create () in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.iter (fun f ->
         if Filename.check_suffix f ".txt" then load_file t (Filename.concat dir f));
  t

(** Write the entries whose key starts with [prefix], sorted by key. *)
let save (t : t) ~prefix path =
  let keys =
    Hashtbl.fold
      (fun k _ acc -> if String.starts_with ~prefix k then k :: acc else acc)
      t []
    |> List.sort compare
  in
  let oc = open_out path in
  List.iter (fun k -> Printf.fprintf oc "%s\t%s\n" k (Hashtbl.find t k)) keys;
  close_out oc

let size_tag = function None -> "default" | Some n -> string_of_int n

let case_key kind ~program ~n ~strategy =
  Printf.sprintf "%s %s %s %s" kind program (size_tag n) strategy

(** Digest of everything addressing depends on: each array's base, pads
    and padded shape, in declaration order. *)
let layout_digest layout =
  let arrays =
    List.map
      (fun a ->
        let d = Layout.padded_decl layout a in
        Printf.sprintf "%s@%d+%d/%d[%s]x%d" a (Layout.base layout a)
          (Layout.pad_before layout a) (Layout.intra_pad layout a)
          (String.concat "," (List.map string_of_int d.Array_decl.dims))
          d.Array_decl.elem_size)
      (Layout.array_names layout)
  in
  Printf.sprintf "%s|%d" (String.concat ";" arrays) (Layout.total_bytes layout)
  |> Digest.string |> Digest.to_hex

(** [refs=R L1=acc,hits,misses,writes,writebacks L2=...]. *)
let stats_string ~refs (levels : Cs.Stats.t list) =
  String.concat " "
    (Printf.sprintf "refs=%d" refs
    :: List.mapi
         (fun i (s : Cs.Stats.t) ->
           Printf.sprintf "L%d=%d,%d,%d,%d,%d" (i + 1) s.accesses s.hits s.misses
             s.writes s.writebacks)
         levels)

(** Checks made in one run: every output compared with its golden, and
    every case that raised, counts once toward [attempted]; mismatches
    and exceptions count toward [failed] and are reported on stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check tally ~what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end;
  ok

(** [expect golden tally key actual] — [actual] must equal the golden
    value filed under [key]; a missing entry fails too. *)
let expect golden tally key actual =
  check tally ~what:key
    (match find golden key with Some g -> g = actual | None -> false)

(** Run [f]; an exception counts as one failed check and yields [None]. *)
let guard tally ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      ignore
        (check tally ~what:(what ^ ": raised " ^ Printexc.to_string e) false);
      None

open Mlc_ir
module An = Mlc_analysis
module Obs = Mlc_obs.Obs

let preserved_references ~size program layout =
  List.fold_left
    (fun acc nest -> acc + An.Arcs.preserved_count layout ~size nest)
    0 program.Program.nests

let conflict_count ~size ~line program layout =
  List.fold_left
    (fun acc nest ->
      acc + List.length (An.Arcs.severe_conflicts layout ~size ~line nest))
    0 program.Program.nests

(* Default: ~128 candidate positions per variable, line-aligned — the
   "limited number of positions" of the original algorithm. *)
let candidates ?candidate_step ~size ~line () =
  let step =
    match candidate_step with
    | Some s -> max line s
    | None -> max line (size / 128 / line * line)
  in
  Array.init (if size <= 0 then 0 else (size + step - 1) / step) (fun k -> k * step)

(* A nest's dots and arcs as integer tables.  A pad before an array moves
   only the bases of that array and the ones after it: a dot's offset
   from its own array's base, and every arc (spans and endpoints), do not
   depend on inter-variable pads, so one compilation against the input
   layout serves every candidate. *)
type table = {
  dot_array : int array;     (* declaration index of the dot's array *)
  dot_offset : int array;    (* bytes from that array's base *)
  position : int array;      (* scratch: the dots' positions for a candidate *)
  arc_trailing : int array;  (* dot index of the trailing reference *)
  arc_leading : int array;   (* dot index of the leading one, or -1 *)
  arc_span : int array;
}

let compile ~size layout nest =
  let dots = Array.of_list (An.Arcs.dots layout ~size nest) in
  let dot_of_ref i =
    let rec go k =
      if k = Array.length dots then -1
      else if dots.(k).An.Arcs.ref_index = i then k
      else go (k + 1)
    in
    go 0
  in
  let array_of d = Layout.index layout d.An.Arcs.ref_.Ref_.array in
  (* Arcs that can never be preserved (too long, or no trailing dot)
     score nothing on any candidate. *)
  let arcs =
    An.Arcs.arcs layout nest
    |> List.filter_map (fun a ->
           let t = dot_of_ref a.An.Arcs.trailing in
           if t < 0 || not (An.Arcs.arc_fits ~size a) then None
           else Some (t, dot_of_ref a.An.Arcs.leading, a.An.Arcs.span))
    |> Array.of_list
  in
  {
    dot_array = Array.map array_of dots;
    dot_offset =
      Array.map
        (fun d ->
          d.An.Arcs.address - Layout.base layout d.An.Arcs.ref_.Ref_.array)
        dots;
    position = Array.make (Array.length dots) 0;
    arc_trailing = Array.map (fun (t, _, _) -> t) arcs;
    arc_leading = Array.map (fun (_, l, _) -> l) arcs;
    arc_span = Array.map (fun (_, _, s) -> s) arcs;
  }

let set_positions ~size bases t =
  Array.iteri
    (fun k a -> t.position.(k) <- (bases.(a) + t.dot_offset.(k)) mod size)
    t.dot_array

(* Severe conflicts (pairs of dots of different arrays within a line),
   counted up to [limit + 1]: past [limit] the candidate has already
   lost. *)
let conflicts ~size ~line ~limit tables =
  let c = ref 0 in
  List.iter
    (fun t ->
      let n = Array.length t.dot_array in
      let i = ref 0 in
      while !c <= limit && !i < n do
        let a = t.dot_array.(!i) and p = t.position.(!i) in
        for j = !i + 1 to n - 1 do
          if
            a <> t.dot_array.(j)
            && An.Arcs.within_line ~size ~line p t.position.(j)
          then incr c
        done;
        incr i
      done)
    tables;
  !c

let preserved ~size tables =
  List.fold_left
    (fun acc t ->
      let kept = ref 0 and n = Array.length t.position in
      Array.iteri
        (fun a trailing ->
          let p = t.position.(trailing) and leading = t.arc_leading.(a) in
          let span = t.arc_span.(a) in
          let k = ref 0 in
          while
            !k < n
            && (!k = trailing || !k = leading
               || not (An.Arcs.under_arc ~size ~span p t.position.(!k)))
          do
            incr k
          done;
          if !k = n then incr kept)
        t.arc_trailing;
      acc + !kept)
    0 tables

let apply ?candidate_step ~size ~line program layout =
  let pads = candidates ?candidate_step ~size ~line () in
  let names = Layout.array_names layout in
  if Array.length pads = 0 || names = [] then layout
  else begin
    Obs.count ~n:(Array.length pads * List.length names) "pass.grouppad.candidates";
    let tables = List.map (compile ~size layout) program.Program.nests in
    (* Variables are settled greedily in declaration order; each keeps the
       candidate with the smallest (conflicts, -preserved, pad). *)
    List.fold_left
      (fun layout v ->
        (* set_pad_before updates every entry named [v] *)
        let moved = Array.of_list (List.map (String.equal v) names) in
        let best = ref (max_int, 0, 0) in
        Array.iter
          (fun pad ->
            let bases, _ =
              Layout.place layout ~pad:(fun i own -> if moved.(i) then pad else own)
            in
            List.iter (set_positions ~size bases) tables;
            let best_c, best_p, _ = !best in
            let c = conflicts ~size ~line ~limit:best_c tables in
            if c <= best_c then begin
              let p = preserved ~size tables in
              if c < best_c || p > best_p then best := (c, p, pad)
            end)
          pads;
        let _, _, pad = !best in
        Layout.set_pad_before layout v pad)
      layout names
  end

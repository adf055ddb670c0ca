(* Metric names, units and the one-line JSON result the benchmark
   prints last. *)

type t = { name : string; unit : string; value : float }

let is_alnum = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

(** A name starts with a letter or digit and has at most 64 letters,
    digits, [_], [.] and [-]. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(** A unit has 1 to 16 letters, digits, [_], [/], [%], [.] and [-]. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(** [make name unit value].
    @raise Invalid_argument on an invalid name or unit, or a value that
    JSON cannot carry (nan, infinity). *)
let make name unit value =
  if not (valid_name name) then invalid_arg ("Metric: invalid name " ^ name);
  if not (valid_unit unit) then invalid_arg ("Metric: invalid unit " ^ unit);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Metric: %s is not finite" name);
  { name; unit; value }

(** [ratio a b] is [a /. b], or 0 when [b] is 0 — for shares and rates
    over a layer that did no work in a run. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Shortest decimal that reads back as exactly [v]. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    go 15

(** The result line: [{"correct", "attempted", "failed", "metrics"}].
    @raise Invalid_argument when a metric name repeats. *)
let result_json ~attempted ~failed metrics =
  let names = List.map (fun m -> m.name) metrics in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Metric.result_json: repeated metric name";
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (number m.value) m.unit)
          metrics))

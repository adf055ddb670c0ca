(* Order statistics with the same arithmetic as Python's [statistics]
   module, so figures printed here agree with any check recomputed from
   the emitted numbers by [statistics.quantiles(values, n=4)]. *)

(** [quantiles ~n xs] is [statistics.quantiles(xs, n=n)] (method
    "exclusive"): the [n - 1] cut points dividing [xs] into [n] groups.
    @raise Invalid_argument on [n < 1] or empty [xs]. *)
let quantiles ~n xs =
  if n < 1 then invalid_arg "Quantile.quantiles: n must be at least 1";
  let data = Array.of_list (List.sort compare xs) in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Quantile.quantiles: no data";
  if ld = 1 then List.init (n - 1) (fun _ -> data.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((data.(j - 1) *. float_of_int (n - delta))
        +. (data.(j) *. float_of_int delta))
        /. float_of_int n)

(** [statistics.median].  @raise Invalid_argument on empty [xs]. *)
let median xs =
  let data = Array.of_list (List.sort compare xs) in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Quantile.median: no data";
  if ld mod 2 = 1 then data.(ld / 2)
  else (data.((ld / 2) - 1) +. data.(ld / 2)) /. 2.0

(** 90th percentile: the ninth of [quantiles ~n:10]. *)
let p90 xs = List.nth (quantiles ~n:10 xs) 8

(** [(q1, q3)] of [quantiles ~n:4]. *)
let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> (q1, q3)
  | _ -> assert false

(** Quartile distance as a share of the median (0 when the median is). *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

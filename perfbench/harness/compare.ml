(* Verdicts of [main.exe compare]: one metric's runs on two commits,
   judged against the bound BENCHMARK.json fixes for it. *)

(* Two sets of this many runs each from one distribution are disjoint
   by chance in 2 of C(10,5) = 252 draws. *)
let min_disjoint_runs = 5

(** [verdict ~lower_is_better ~bound ~old_values ~new_values].  When
    both sides have at least {!min_disjoint_runs} runs and every new run
    reads better than every old run, the change is [better]; when every
    new run reads worse, [worse] — however wide either set spreads.
    Otherwise, when the old runs' quartile distance over their median is
    at most [bound], a median worse by more than [bound] is [worse] and
    one better by more than [bound] is [better]: two sets of the same
    code, run minutes apart, can differ by more than their spread.
    Anything else is [unresolved]. *)
let verdict ~lower_is_better ~bound ~old_values ~new_values =
  let sign = if lower_is_better then 1.0 else -1.0 in
  let signed = List.map (( *. ) sign) in
  let lo l = List.fold_left Float.min Float.infinity (signed l) in
  let hi l = List.fold_left Float.max Float.neg_infinity (signed l) in
  let enough =
    List.length old_values >= min_disjoint_runs
    && List.length new_values >= min_disjoint_runs
  in
  let om = Quantile.median old_values and nm = Quantile.median new_values in
  (* Relative change of the median, positive when the new runs are worse. *)
  let worse = if om = 0.0 then 0.0 else sign *. (nm -. om) /. Float.abs om in
  let old_spread = Quantile.spread old_values in
  if enough && hi new_values < lo old_values then "better"
  else if enough && lo new_values > hi old_values then "worse"
  else if old_spread > bound then "unresolved"
  else if worse > bound then "worse"
  else if -.worse > bound then "better"
  else "unresolved"

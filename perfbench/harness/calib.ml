(* The host's speed, measured with code that belongs to the benchmark
   and never changes: a stand-in for the simulator.  Nested loops make
   the addresses of a 5-point stencil through closures, and a two-level
   set-associative LRU cascade counts their hits.  A 2-vCPU Xeon VM
   shared with other guests changes speed by up to 2x within minutes;
   this unit slows down with the program (correlation 0.97 over 16
   passes of affine-sim, log-log slope 1.17), so times divided by it
   compare across those swings.  Changing this file changes every
   calibrated metric. *)

type level = {
  tags : int array;  (** per set, most recently used first; -1 empty *)
  ways : int;
  sets : int;
  line_bits : int;
  mutable hits : int;
}

let level ~size ~ways ~line_bits =
  let sets = (size lsr line_bits) / ways in
  { tags = Array.make (sets * ways) (-1); ways; sets; line_bits; hits = 0 }

let access lv addr =
  let line = addr lsr lv.line_bits in
  let base = (line land (lv.sets - 1)) * lv.ways in
  let rec find i =
    if i = lv.ways then -1 else if lv.tags.(base + i) = line then i else find (i + 1)
  in
  let i = find 0 in
  for j = (if i >= 0 then i else lv.ways - 1) downto 1 do
    lv.tags.(base + j) <- lv.tags.(base + j - 1)
  done;
  lv.tags.(base) <- line;
  if i >= 0 then lv.hits <- lv.hits + 1;
  i >= 0

(** Hits of both levels over the stencil on an [n] x [n] grid: 16 KiB
    direct-mapped L1 with 32-byte lines, 512 KiB 4-way L2 with 64-byte
    lines. *)
let run n =
  let l1 = level ~size:16384 ~ways:1 ~line_bits:5 in
  let l2 = level ~size:524288 ~ways:4 ~line_bits:6 in
  let bytes = 8 * n * n in
  let refs =
    [|
      (fun i j -> 8 * ((i * n) + j));
      (fun i j -> 8 * (((i - 1) * n) + j));
      (fun i j -> 8 * (((i + 1) * n) + j));
      (fun i j -> 8 * ((i * n) + j - 1));
      (fun i j -> 8 * ((i * n) + j + 1));
      (fun i j -> bytes + (8 * ((i * n) + j)));
    |]
  in
  for i = 1 to n - 2 do
    for j = 1 to n - 2 do
      Array.iter
        (fun f ->
          let a = f i j in
          if not (access l1 a) then ignore (access l2 a))
        refs
    done
  done;
  l1.hits + l2.hits

let grid = 256

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** CPU seconds of one calibration unit, [run grid]: about 11 ms on a
    2-vCPU Xeon VM.  CPU time, not wall time, so that the unit reads the
    host's speed even while a child process keeps both cores busy. *)
let unit_s () =
  let c0 = cpu_now () in
  ignore (Sys.opaque_identity (run grid));
  cpu_now () -. c0

(** The unit's time that calibrated seconds are expressed at: a time [t]
    measured while the unit took [u] reads [t *. reference_s /. u]. *)
let reference_s = 0.01

let scale ~unit t = t *. reference_s /. unit

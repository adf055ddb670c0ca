(* Fast simulation backend: an optimized replica of the reference cascade
   ([Hierarchy] over [Level]).  Same filtered semantics (level i+1 only
   sees level i's misses), same LRU tie-breaking, same write-allocate and
   dirty-line accounting, so the per-level [Stats.t] match the reference
   path exactly.  Speed comes from two places.  [block] consumes a whole
   innermost loop at once: with a direct-mapped L1 it checks L1 tags
   inline and cascades only misses; with an associative L1 it accounts
   runs of guaranteed hits in bulk.  [outer_loop] skips whole outer-loop
   iterations once the cache state repeats itself shifted by the outer
   stride (direct-mapped hierarchies only).

   Hardware prefetch is not modelled here; callers gate on it and fall
   back to the reference path. *)

type level = {
  line_bits : int;
  set_mask : int;
  assoc : int;
  (* tags.(set * assoc + way), -1 = empty; mirrors Level. *)
  tags : int array;
  last_use : int array;
  dirty : bool array;
  mutable clock : int;
  mutable valid : int;  (* lines holding a tag *)
  stats : Stats.t;
  (* [outer_loop]'s copy of [tags]/[dirty], preallocated so a try
     allocates nothing *)
  snap_tags : int array;
  snap_dirty : bool array;
}

type t = {
  write_allocate : bool;
  levels : level array;
  (* scratch for [block], grown on demand to the widest ref group seen *)
  mutable cur : int array;
  mutable slot : int array;
  (* fast-path accounting: how [block] and [outer_loop] consumed their
     iterations *)
  mutable bulk_segments : int;
  mutable bulk_iterations : int;
  mutable seq_iterations : int;
  mutable skipped_iterations : int;
}

type metrics = {
  bulk_segments : int;
  bulk_iterations : int;
  seq_iterations : int;
  skipped_iterations : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let make_level (geom : Level.geometry) =
  if not (is_pow2 geom.size) then invalid_arg "Fast_sim.create: size not a power of two";
  if not (is_pow2 geom.line) then invalid_arg "Fast_sim.create: line not a power of two";
  if geom.line > geom.size then invalid_arg "Fast_sim.create: line larger than cache";
  if geom.assoc < 1 then invalid_arg "Fast_sim.create: associativity < 1";
  let n_lines = geom.size / geom.line in
  if n_lines mod geom.assoc <> 0 then
    invalid_arg "Fast_sim.create: associativity does not divide line count";
  let n_sets = n_lines / geom.assoc in
  if not (is_pow2 n_sets) then invalid_arg "Fast_sim.create: set count not a power of two";
  {
    line_bits = log2 geom.line;
    set_mask = n_sets - 1;
    assoc = geom.assoc;
    tags = Array.make n_lines (-1);
    last_use = Array.make n_lines 0;
    dirty = Array.make n_lines false;
    clock = 0;
    valid = 0;
    stats = Stats.create ();
    snap_tags = Array.make n_lines (-1);
    snap_dirty = Array.make n_lines false;
  }

let create ?(write_allocate = true) geoms =
  if geoms = [] then invalid_arg "Fast_sim.create: no levels";
  {
    write_allocate;
    levels = Array.of_list (List.map make_level geoms);
    cur = [||];
    slot = [||];
    bulk_segments = 0;
    bulk_iterations = 0;
    seq_iterations = 0;
    skipped_iterations = 0;
  }

let level_stats t = Array.to_list (Array.map (fun l -> l.stats) t.levels)

let metrics (t : t) : metrics =
  {
    bulk_segments = t.bulk_segments;
    bulk_iterations = t.bulk_iterations;
    seq_iterations = t.seq_iterations;
    skipped_iterations = t.skipped_iterations;
  }

(* One access at one level; mirrors Level.access minus prefetch.
   Returns whether it hit.  All indices below are masked (set <=
   set_mask) or bounded by assoc, so unchecked array accesses are safe;
   stats are bumped inline to keep this path allocation-free. *)
let access_level ~write_allocate ~write l addr =
  let line_addr = addr lsr l.line_bits in
  let set = line_addr land l.set_mask in
  let st = l.stats in
  st.Stats.accesses <- st.Stats.accesses + 1;
  if write then st.Stats.writes <- st.Stats.writes + 1;
  if l.assoc = 1 then begin
    (* Direct-mapped: no LRU state, so the clock can be skipped. *)
    if Array.unsafe_get l.tags set = line_addr then begin
      if write then Array.unsafe_set l.dirty set true;
      st.Stats.hits <- st.Stats.hits + 1;
      true
    end
    else begin
      if (not write) || write_allocate then begin
        if Array.unsafe_get l.tags set < 0 then l.valid <- l.valid + 1
        else if Array.unsafe_get l.dirty set then
          st.Stats.writebacks <- st.Stats.writebacks + 1;
        Array.unsafe_set l.tags set line_addr;
        Array.unsafe_set l.dirty set write
      end;
      st.Stats.misses <- st.Stats.misses + 1;
      false
    end
  end
  else begin
    l.clock <- l.clock + 1;
    let assoc = l.assoc in
    let base = set * assoc in
    let rec find way =
      if way = assoc then -1
      else if Array.unsafe_get l.tags (base + way) = line_addr then way
      else find (way + 1)
    in
    let way = find 0 in
    if way >= 0 then begin
      Array.unsafe_set l.last_use (base + way) l.clock;
      if write then Array.unsafe_set l.dirty (base + way) true;
      st.Stats.hits <- st.Stats.hits + 1;
      true
    end
    else begin
      if (not write) || write_allocate then begin
        let victim = ref 0 in
        for w = 1 to assoc - 1 do
          if Array.unsafe_get l.last_use (base + w)
             < Array.unsafe_get l.last_use (base + !victim)
          then victim := w
        done;
        let slot = base + !victim in
        if Array.unsafe_get l.tags slot < 0 then l.valid <- l.valid + 1
        else if Array.unsafe_get l.dirty slot then
          st.Stats.writebacks <- st.Stats.writebacks + 1;
        Array.unsafe_set l.tags slot line_addr;
        Array.unsafe_set l.dirty slot write;
        Array.unsafe_set l.last_use slot l.clock
      end;
      st.Stats.misses <- st.Stats.misses + 1;
      false
    end
  end

(* Closure-free cascade: level [i] only sees the miss stream of [i-1]. *)
let rec cascade t write i n addr =
  if i = n then n
  else if access_level ~write_allocate:t.write_allocate ~write t.levels.(i) addr
  then i
  else cascade t write (i + 1) n addr

let access t ?(write = false) addr = cascade t write 0 (Array.length t.levels) addr

(* Slot of [addr]'s line at level [l], or -1 when not resident. *)
let find_slot l addr =
  let line_addr = addr lsr l.line_bits in
  let set = line_addr land l.set_mask in
  if l.assoc = 1 then (if l.tags.(set) = line_addr then set else -1)
  else begin
    let base = set * l.assoc in
    let rec go way =
      if way = l.assoc then -1
      else if l.tags.(base + way) = line_addr then base + way
      else go (way + 1)
    in
    go 0
  end

let ensure_scratch t n =
  if Array.length t.cur < n then begin
    t.cur <- Array.make n 0;
    t.slot <- Array.make n 0
  end

(* [block] pushes [count] iterations of an innermost loop through the
   hierarchy: iteration j issues, for each ref r in order,
   [bases.(r) + j * strides.(r)] (a write iff [writes.(r)]). *)

(* Direct-mapped L1 (the paper's machines): the iterations run in
   reference order with L1 inlined; only refs that miss L1 go on to the
   cascade below it (whose installs at L1 can evict a later ref's line,
   hence the per-ref check at its turn).  L1 counters are not bumped per
   access: they are recovered at the end from the iteration count and
   the misses.  No bulk phase: with a sub-line stride a ref stays on one
   line for at most line/stride iterations, too few to pay for tracking.

   Unchecked array accesses: sets are masked by [set_mask]; scratch
   indices are < nrefs, and [block] validated the input array lengths. *)
let block_dm t l1 ~bases ~strides ~writes ~count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let cur = t.cur in
  Array.blit bases 0 cur 0 nrefs;
  let line_bits = l1.line_bits and set_mask = l1.set_mask in
  let tags = l1.tags and dirty = l1.dirty in
  let st = l1.stats in
  let n = Array.length t.levels in
  let misses = ref 0 in
  for _ = 1 to count do
    for r = 0 to nrefs - 1 do
      let a = Array.unsafe_get cur r in
      let la = a lsr line_bits in
      let set = la land set_mask in
      let w = Array.unsafe_get writes r in
      if Array.unsafe_get tags set = la then begin
        if w then Array.unsafe_set dirty set true
      end
      else begin
        incr misses;
        if (not w) || t.write_allocate then begin
          if Array.unsafe_get tags set < 0 then l1.valid <- l1.valid + 1
          else if Array.unsafe_get dirty set then
            st.Stats.writebacks <- st.Stats.writebacks + 1;
          Array.unsafe_set tags set la;
          Array.unsafe_set dirty set w
        end;
        ignore (cascade t w 1 n a)
      end;
      Array.unsafe_set cur r (a + Array.unsafe_get strides r)
    done
  done;
  let nwrites = ref 0 in
  for r = 0 to nrefs - 1 do
    if writes.(r) then incr nwrites
  done;
  let accesses = count * nrefs in
  st.Stats.accesses <- st.Stats.accesses + accesses;
  st.Stats.hits <- st.Stats.hits + (accesses - !misses);
  st.Stats.misses <- st.Stats.misses + !misses;
  st.Stats.writes <- st.Stats.writes + (count * !nwrites);
  t.seq_iterations <- t.seq_iterations + count

(* Associative L1: segments bounded by the next line crossing of any ref.
   If every ref's line is resident the whole segment is hits and is
   accounted in bulk: while every ref hits L1, lower levels see nothing
   and no line is installed or evicted, so the segment changes only
   counters, dirty bits (idempotent) and LRU recency.  Recency then needs
   one refresh — touching each ref's line once, in ref order, with fresh
   clock values reproduces the relative last-use order the per-access
   path would leave, and only the relative order feeds LRU victim
   selection. *)
let block_assoc t l1 ~bases ~strides ~writes ~count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let line_mask = (1 lsl l1.line_bits) - 1 in
  let line = line_mask + 1 in
  let cur = t.cur and slot = t.slot in
  Array.blit bases 0 cur 0 nrefs;
  let probe () =
    let ok = ref true in
    let r = ref 0 in
    while !ok && !r < nrefs do
      let s = find_slot l1 cur.(!r) in
      slot.(!r) <- s;
      if s < 0 then ok := false else incr r
    done;
    !ok
  in
  let bulk k =
    t.bulk_segments <- t.bulk_segments + 1;
    t.bulk_iterations <- t.bulk_iterations + k;
    let st = l1.stats in
    st.Stats.accesses <- st.Stats.accesses + (k * nrefs);
    st.Stats.hits <- st.Stats.hits + (k * nrefs);
    for r = 0 to nrefs - 1 do
      if writes.(r) then begin
        st.Stats.writes <- st.Stats.writes + k;
        l1.dirty.(slot.(r)) <- true
      end;
      l1.clock <- l1.clock + 1;
      l1.last_use.(slot.(r)) <- l1.clock
    done
  in
  let n = Array.length t.levels in
  let one_iteration () =
    t.seq_iterations <- t.seq_iterations + 1;
    for r = 0 to nrefs - 1 do
      ignore (cascade t writes.(r) 0 n cur.(r))
    done
  in
  let advance k =
    for r = 0 to nrefs - 1 do
      cur.(r) <- cur.(r) + (k * strides.(r))
    done
  in
  let i = ref 0 in
  while !i < count do
    let left = count - !i in
    (* iterations until some ref leaves its current L1 line *)
    let k = ref left in
    for r = 0 to nrefs - 1 do
      let s = strides.(r) in
      if s > 0 then begin
        let c = (line - (cur.(r) land line_mask) + s - 1) / s in
        if c < !k then k := c
      end
      else if s < 0 then begin
        let c = ((cur.(r) land line_mask) / -s) + 1 in
        if c < !k then k := c
      end
    done;
    let k = !k in
    if probe () then begin
      bulk k;
      advance k;
      i := !i + k
    end
    else begin
      one_iteration ();
      advance 1;
      incr i;
      if k > 1 then begin
        if probe () then begin
          bulk (k - 1);
          advance (k - 1);
          i := !i + (k - 1)
        end
        else
          (* conflicting or non-allocated lines: no steady state within
             this segment, replay it access by access *)
          for _ = 2 to k do
            one_iteration ();
            advance 1;
            incr i
          done
      end
    end
  done

let block t ~bases ~strides ~writes ~count =
  let nrefs = Array.length bases in
  if Array.length strides <> nrefs || Array.length writes <> nrefs then
    invalid_arg "Fast_sim.block: bases/strides/writes length mismatch";
  if nrefs > 0 && count > 0 then begin
    let l1 = t.levels.(0) in
    if l1.assoc = 1 then block_dm t l1 ~bases ~strides ~writes ~count
    else block_assoc t l1 ~bases ~strides ~writes ~count
  end

(* --- outer-loop fast-forward ----------------------------------------------

   [outer_loop] runs an outer loop whose iteration j+1 issues exactly the
   accesses of iteration j shifted by [stride] bytes.  When every level is
   direct-mapped and [stride] is a multiple of every line size, shifting
   every address by [stride] moves each line [k = stride / line] sets on
   (mod the set count) and adds [k] to its tag; the simulator is
   equivariant under that shift, since hits, misses, installs, evictions
   and dirty bits depend only on tag equality within a set.  So if the
   state after iteration j+1 is the state after iteration j shifted by
   [stride], iteration j+2 sees the shifted state and the shifted
   accesses, repeats iteration j+1's counter deltas and again ends in the
   shifted state: by induction every remaining iteration does.  They are
   accounted as a multiple of the last delta, and the state is shifted
   once by the whole distance. *)

(* Counter vector: per level the five [Stats] counters and the valid
   lines, then the body iterations [block] has consumed. *)
let read_counters t v =
  Array.iteri
    (fun i l ->
      let s = l.stats and o = 6 * i in
      v.(o) <- s.Stats.accesses;
      v.(o + 1) <- s.Stats.hits;
      v.(o + 2) <- s.Stats.misses;
      v.(o + 3) <- s.Stats.writes;
      v.(o + 4) <- s.Stats.writebacks;
      v.(o + 5) <- l.valid)
    t.levels;
  v.(Array.length v - 1) <- t.bulk_iterations + t.seq_iterations

(* A shift keeps the number of valid lines, so while a level is still
   filling no try can succeed. *)
let fills t v =
  let rec go i = i < Array.length t.levels && (v.((6 * i) + 5) <> 0 || go (i + 1)) in
  go 0

let add_counters t ~times v =
  Array.iteri
    (fun i l ->
      let s = l.stats and o = 6 * i in
      s.Stats.accesses <- s.Stats.accesses + (times * v.(o));
      s.Stats.hits <- s.Stats.hits + (times * v.(o + 1));
      s.Stats.misses <- s.Stats.misses + (times * v.(o + 2));
      s.Stats.writes <- s.Stats.writes + (times * v.(o + 3));
      s.Stats.writebacks <- s.Stats.writebacks + (times * v.(o + 4)))
    t.levels;
  t.skipped_iterations <- t.skipped_iterations + (times * v.(Array.length v - 1))

let snapshot t =
  Array.iter
    (fun l ->
      Array.blit l.tags 0 l.snap_tags 0 (Array.length l.tags);
      Array.blit l.dirty 0 l.snap_dirty 0 (Array.length l.dirty))
    t.levels

(* Does every level hold the snapshot shifted by [d] bytes? *)
let shifted_from_snapshot t d =
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < Array.length t.levels do
    let l = t.levels.(!i) in
    let k = d asr l.line_bits in
    let s = ref 0 in
    while !ok && !s <= l.set_mask do
      let tag = l.snap_tags.(!s) in
      let s' = (!s + k) land l.set_mask in
      ok :=
        l.tags.(s') = (if tag < 0 then -1 else tag + k)
        && l.dirty.(s') = l.snap_dirty.(!s);
      incr s
    done;
    incr i
  done;
  !ok

(* Replace the state by itself shifted by [d] bytes. *)
let shift_state t d =
  snapshot t;
  Array.iter
    (fun l ->
      let k = d asr l.line_bits in
      for s = 0 to l.set_mask do
        let tag = l.snap_tags.(s) in
        let s' = (s + k) land l.set_mask in
        l.tags.(s') <- (if tag < 0 then -1 else tag + k);
        l.dirty.(s') <- l.snap_dirty.(s)
      done)
    t.levels

(* A try costs a snapshot and a comparison, O(lines).  It is made only
   after two outer iterations with identical counter deltas that filled
   no empty line (a state that repeats shifted must repeat its deltas
   first, and keeps its count of valid lines), and only when an iteration
   issues at least [lines / 4] L1 accesses, which bounds the checking
   work by a small multiple of the simulation work. *)
let outer_loop t ~stride ~count body =
  let qualifies =
    stride <> 0
    && Array.for_all
         (fun l -> l.assoc = 1 && stride land ((1 lsl l.line_bits) - 1) = 0)
         t.levels
  in
  let lines = Array.fold_left (fun acc l -> acc + Array.length l.tags) 0 t.levels in
  let nc = (6 * Array.length t.levels) + 1 in
  let before = Array.make nc 0 in
  let delta = Array.make nc 0 in
  let prev = Array.make nc (-1) in
  let snapped = ref false in
  let skipped = ref false in
  let ran = ref 0 in
  while (not !skipped) && !ran < count do
    read_counters t before;
    body !ran;
    incr ran;
    read_counters t delta;
    for i = 0 to nc - 1 do
      delta.(i) <- delta.(i) - before.(i)
    done;
    if !snapped && shifted_from_snapshot t stride then begin
      let rest = count - !ran in
      add_counters t ~times:rest delta;
      shift_state t (rest * stride);
      skipped := true
    end
    else begin
      snapped :=
        qualifies && count - !ran >= 2 && 4 * delta.(0) >= lines && delta = prev
        && not (fills t delta);
      if !snapped then snapshot t;
      Array.blit delta 0 prev 0 nc
    end
  done;
  !ran

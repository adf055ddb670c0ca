(* Child processes: the bench harness and the mlc CLI, run as a user
   would, with their wall time, CPU time and peak memory measured from
   outside. *)

module Json = Mlc_obs.Trace_check.Json

type outcome = {
  status : Unix.process_status;
  wall : float;  (** seconds *)
  cpu : float;  (** user + system seconds of the child *)
  peak_rss_mb : float;
}

let ok o = o.status = Unix.WEXITED 0

(* VmHWM (peak resident set) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                    Some (float_of_int kb /. 1024.0))
            | _ -> go ()
          in
          go ())

let self_peak_rss_mb () = Option.value ~default:0.0 (peak_rss_mb "self")

let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(** [run ~cwd ~stdout ~stderr exe args] runs [exe] (a path relative to
    the current directory) in [cwd], with its output in the named files,
    and waits for it.
    Peak memory is sampled every 20 ms; the high-water mark only grows,
    so the last sample misses at most the final 20 ms.  [tick] is
    called after every sample.  The wall time ends when SIGCHLD arrives,
    which interrupts the sleep between samples, so it is not rounded up
    to the sampling period. *)
let run ?(tick = ignore) ~cwd ~stdout ~stderr exe args =
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe
  in
  let open_out_fd f =
    Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = open_out_fd stdout and err = open_out_fd stderr in
  let ended = ref None in
  let previous =
    Sys.signal Sys.sigchld
      (Sys.Signal_handle (fun _ -> ended := Some (Unix.gettimeofday ())))
  in
  let cpu0 = child_cpu () in
  let t0 = Unix.gettimeofday () in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          Sys.set_signal Sys.sigchld previous;
          Unix.chdir cwd;
          Unix.dup2 out Unix.stdout;
          Unix.dup2 err Unix.stderr;
          Unix.execv exe (Array.of_list (exe :: args))
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close out;
  Unix.close err;
  let rss = ref 0.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        Option.iter
          (fun r -> rss := Float.max !rss r)
          (peak_rss_mb (string_of_int pid));
        tick ();
        Unix.sleepf 0.02;
        wait ()
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let t1 = Unix.gettimeofday () in
  Sys.set_signal Sys.sigchld previous;
  let wall = Option.value ~default:t1 !ended -. t0 in
  { status; wall; cpu = child_cpu () -. cpu0; peak_rss_mb = !rss }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let digest_file path = Digest.to_hex (Digest.file path)

let field k = function Json.Obj kvs -> List.assoc_opt k kvs | _ -> None

let number_opt = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(** A JSON number, 0 when absent. *)
let number j = Option.value ~default:0.0 (number_opt j)

(** Sections and streamed references from the [BENCH_engine.json] a
    bench run writes in its working directory. *)
let bench_record path =
  let j = Json.parse (read_file path) in
  let sections =
    match field "sections" j with
    | Some (Json.List l) ->
        List.filter_map
          (fun s ->
            match field "name" s with
            | Some (Json.String n) -> Some (n, number (field "wall_s" s))
            | _ -> None)
          l
    | _ -> []
  in
  (sections, number (field "refs_streamed" j))

(** Spans of a Chrome trace file, paired per thread. *)
let trace_spans path =
  let events =
    match Json.parse (read_file path) with
    | Json.List l -> l
    | j -> ( match field "traceEvents" j with Some (Json.List l) -> l | _ -> [])
  in
  let str k e = match field k e with Some (Json.String s) -> s | _ -> "" in
  let int k e = match field k e with Some (Json.Int i) -> i | _ -> 0 in
  List.filter_map
    (fun e ->
      match str "ph" e with
      | "B" -> Some (true, str "cat" e, str "name" e, int "tid" e, int "ts" e)
      | "E" -> Some (false, "", "", int "tid" e, int "ts" e)
      | _ -> None)
    events
  |> Layer.pair_spans

(** Counter totals a [--metrics] run prints after its results, and the
    output before them. *)
let split_metrics stdout =
  let marker = "\nmetrics:\n" in
  let rec find i =
    if i < 0 then None
    else if String.sub stdout i (String.length marker) = marker then Some i
    else find (i - 1)
  in
  match find (String.length stdout - String.length marker) with
  | None -> (stdout, [])
  | Some i ->
      let body = String.sub stdout 0 (i + 1) in
      let start = i + String.length marker in
      let rest = String.sub stdout start (String.length stdout - start) in
      let counters =
        String.split_on_char '\n' rest
        |> List.filter_map (fun line ->
               match List.filter (( <> ) "") (String.split_on_char ' ' line) with
               | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
               | _ -> None)
      in
      (body, counters)

(* The end-to-end benchmark runner: builds the inputs of one workload from
   a seed, runs it against the in-process libraries (field) or a child
   `cbi serve` process on a Unix socket (ingest, live, triage), checks the
   outputs, and prints a human-readable report followed by one JSON line.
   See perfbench/README.md for the workloads and metrics. *)

open Sbi_runtime
module Client = Sbi_serve.Client
module Wire = Sbi_serve.Wire
module Index = Sbi_index.Index
module Snap = Sbi_index.Triage.Snap
module Shard_log = Sbi_ingest.Shard_log
module Codec = Sbi_ingest.Codec
module P = Pbstats

let now_ns = Sbi_obs.Clock.now_ns
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3
let secs ns = float_of_int ns /. 1e9

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

(* --- command line --- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cbi : string;  (* the built `cbi` executable *)
  work : string;  (* scratch directory for this run, removed by the caller *)
  out : string;  (* where the run record is written *)
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cbi = ref "" and work = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME field | ingest | live | triage");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--cbi", Arg.Set_string cbi, "PATH cbi executable");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--out", Arg.Set_string out, "FILE run record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb --workload NAME --seed N --seconds S --trace 0|1 --cbi PATH --work DIR --out FILE";
  if !seconds <= 0. then raise (Arg.Bad "--seconds must be positive");
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    cbi = !cbi;
    work = !work;
    out = !out;
  }

(* --- tracing: spans kept in memory, written out when the run ends ---

   In a traced run every even-numbered operation is wrapped in spans and
   every odd one is not, so the difference of their means is the
   tracing overhead measured on the same inputs at the same time. *)

let spans : P.span list ref = ref []
let spans_lock = Mutex.create ()
let span_ids = Atomic.make 1

let span ~on ?parent ?(req = -1) name f =
  if not on then f None
  else begin
    let id = Atomic.fetch_and_add span_ids 1 in
    let start_ns = now_ns () in
    let record () =
      let s = { P.id; parent; name; req; start_ns; stop_ns = now_ns () } in
      Mutex.lock spans_lock;
      spans := s :: !spans;
      Mutex.unlock spans_lock
    in
    match f (Some id) with
    | r ->
        record ();
        r
    | exception e ->
        record ();
        raise e
  end

(* Median duration of the spans named [name], 0 when there are none. *)
let span_median_ns name =
  match List.filter_map (fun s -> if s.P.name = name then Some (float_of_int (P.dur s)) else None) !spans with
  | [] -> 0.
  | d -> P.median (Array.of_list d)

(* --- files and /proc --- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p

let rec disk_bytes p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc e -> acc + disk_bytes (Filename.concat p e)) 0 (Sys.readdir p)
  | st -> st.Unix.st_size

(* Whole file, read to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      go [])

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
      | _ -> acc)
    nan (read_lines path)

(* User + system CPU seconds of a process (utime and stime are fields 14
   and 15 of /proc/<pid>/stat, in clock ticks of 1/100 s on Linux). *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string (f.(11)) /. 100. +. float_of_string f.(12) /. 100.

(* --- host descriptor: recorded with every result, not a metric --- *)

let cores () =
  List.length
    (List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "processor") (read_lines "/proc/cpuinfo"))

let fsync_p50_us dir =
  let path = Filename.concat dir "fsync-probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make 65536 'x' in
  let samples =
    Array.init 15 (fun _ ->
        let t0 = now_ns () in
        ignore (Unix.write fd buf 0 (Bytes.length buf));
        Unix.fsync fd;
        us (now_ns () - t0))
  in
  Unix.close fd;
  Unix.unlink path;
  P.median samples

(* A fixed integer workload; its median time tracks the host's speed. *)
let cpu_probe_s () =
  let once () =
    let t0 = now_ns () in
    let x = ref 0x2545F491 in
    for _ = 1 to 20_000_000 do
      x := (!x * 1103515245 + 12345) land 0x3fffffff
    done;
    ignore (Sys.opaque_identity !x);
    secs (now_ns () - t0)
  in
  P.median (Array.init 5 (fun _ -> once ()))

(* The reference the server workloads' overhead_x divides by: a fixed
   computation owned by the benchmark, allocating and hashing as the
   server does, so no program change can move it but a slower host does.
   It takes ~0.35 ms.  Returns its time in ms. *)
let reference_ms () =
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 999 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (Int.to_string i)
  done;
  let l = List.init 1000 (fun i -> (i * 104729) mod 10007) in
  ignore (Sys.opaque_identity (List.sort compare l, Hashtbl.length h));
  ms (now_ns () - t0)

(* --- corpus: mossim at the paper's deployment rate --- *)

let study = Option.get (Sbi_corpus.Corpus.by_name "mossim")

let make_spec seed =
  let config =
    { Sbi_experiments.Harness.default_config with sampling = Sbi_experiments.Harness.Uniform 0.01; seed }
  in
  let _, _, spec = Sbi_experiments.Harness.prepare ~config study in
  spec

let collect_domains () = min 2 (Sbi_ingest.Par_collect.default_domains ())

(* --- results --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  notes : string list;  (* extra report lines: p99 where defined, sample counts *)
}

(* What one load-generator connection saw. *)
type conn = {
  mutable lat : float list;  (* ms per successful operation *)
  mutable traced : float list;
  mutable untraced : float list;
  mutable reference : float list;  (* [reference_ms] samples taken between operations *)
  mutable acked : int list;
  mutable sent : Report.t list list;  (* acked batches, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable error : string option;  (* a failed check inside the thread *)
}

let new_conn () =
  {
    lat = [];
    traced = [];
    untraced = [];
    reference = [];
    acked = [];
    sent = [];
    attempted = 0;
    failed = 0;
    error = None;
  }

let record_lat (c : conn) ~trace ~on dt =
  c.lat <- dt :: c.lat;
  if trace then if on then c.traced <- dt :: c.traced else c.untraced <- dt :: c.untraced

(* Time the reference after every [every]-th operation of a connection,
   while that connection has no request in flight. *)
let sample_reference (c : conn) ~every =
  if c.attempted mod every = 0 then c.reference <- reference_ms () :: c.reference

(* A server workload's overhead_x: the median primary operation in units
   of the median reference.  The mean would also see a slower affinity
   class in triage, but in a slow stretch of the host the affinity tail
   doubled and the mean's spread over ten seeds reached 0.66. *)
let reference_ratio (c : conn) = P.median (Array.of_list c.lat) /. P.median (Array.of_list c.reference)

let reference_note (c : conn) =
  Printf.sprintf "reference computation: median %.4f ms over %d samples" (P.median (Array.of_list c.reference))
    (List.length c.reference)

(* Several connections' observations as one. *)
let merge cs =
  let cat f = List.concat_map f cs and sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
  {
    lat = cat (fun c -> c.lat);
    traced = cat (fun c -> c.traced);
    untraced = cat (fun c -> c.untraced);
    reference = cat (fun c -> c.reference);
    acked = cat (fun c -> c.acked);
    sent = cat (fun c -> c.sent);
    attempted = sum (fun c -> c.attempted);
    failed = sum (fun c -> c.failed);
    error = None;
  }

(* Run [body] on [n] connections, one thread each, and merge what they
   saw; a check that failed inside a thread fails the run here. *)
let run_conns n body =
  let cs = Array.init n (fun _ -> new_conn ()) in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            try body i cs.(i) with
            | Mismatch msg -> cs.(i).error <- Some msg
            | e -> cs.(i).error <- Some (Printexc.to_string e))
          ())
  in
  List.iter Thread.join threads;
  Array.iter (fun c -> Option.iter (fun msg -> raise (Mismatch msg)) c.error) cs;
  merge (Array.to_list cs)

(* The JSON carries a number even when a run falls short of the samples
   the percentile rule asks for: the nearest-rank value, flagged in the
   report by [latency_notes]. *)
let pct ~pct a =
  match P.percentile ~pct a with
  | Some v -> v
  | None -> if Array.length a = 0 then 0. else (P.sorted a).(P.rank ~pct (Array.length a) - 1)

let latency_notes label (a : float array) =
  let n = Array.length a in
  let show pct =
    match P.percentile ~pct a with
    | Some v -> Printf.sprintf "p%d %.4f ms" pct v
    | None ->
        Printf.sprintf "p%d n/a (needs >= %d samples; the JSON carries the nearest-rank value)" pct
          (P.min_samples ~pct)
  in
  [ Printf.sprintf "%s: %d samples, median %.4f ms, %s, %s, %s" label n (P.median a) (show 90) (show 95) (show 99) ]

(* Mean of the traced minus the untraced operations, and its share. *)
let overhead_layers ~traced ~untraced =
  let t = P.mean traced and u = P.mean untraced in
  [ m "trace.overhead_us" "us" ((t -. u) *. 1e3); m "trace.overhead_share" "ratio" ((t -. u) /. u) ]

(* Run [setup] [reps] times, keeping the last instance and tearing down
   the others; returns it with the median set-up time. *)
let repeated_setup ~reps ~teardown setup =
  let times = ref [] in
  let rec go k =
    let t0 = now_ns () in
    let x = setup k in
    times := secs (now_ns () - t0) :: !times;
    if k + 1 < reps then begin
      teardown x;
      go (k + 1)
    end
    else x
  in
  let x = go 0 in
  (x, P.median (Array.of_list !times))

(* --- field: instrumented runs in process --- *)

let field a =
  let spec_box, setup_s =
    repeated_setup ~reps:41 ~teardown:(fun _ -> Gc.full_major ()) (fun _ ->
        let spec = make_spec a.seed in
        let sampler =
          Sbi_instrument.Sampler.create ~seed:a.seed
            ~nsites:(Sbi_instrument.Transform.num_sites spec.Collect.transform)
            spec.Collect.plan
        in
        (spec, sampler))
  in
  let spec, sampler = spec_box in
  let first_run = 1 + (a.seed mod 97 * 1000) in
  let lat = ref [] and traced = ref [] and untraced = ref [] in
  let inst_ns = ref 0 and uninst_ns = ref 0 in
  let encoded = ref [] and sites = ref 0 and preds = ref 0 in
  let deadline = now_ns () + int_of_float (a.seconds *. 1e9) in
  let t_start = now_ns () in
  let i = ref 0 in
  while now_ns () < deadline do
    let run_index = first_run + !i in
    let on = a.trace && !i land 1 = 0 in
    Sbi_instrument.Sampler.reseed sampler (Collect.run_seed ~seed:a.seed ~run_index);
    let t0 = now_ns () in
    let report, enc, t1 =
      span ~on ~req:!i "field.op" (fun parent ->
          let report, _ =
            span ~on ?parent ~req:!i "runtime.run_one" (fun _ -> Collect.run_one spec ~sampler ~run_index)
          in
          let t1 = now_ns () in
          let enc = span ~on ?parent ~req:!i "ingest.codec.encode" (fun _ -> Codec.encode report) in
          (report, enc, t1))
    in
    let t2 = now_ns () in
    ignore
      (span ~on ~req:!i "runtime.run_uninstrumented" (fun _ -> Collect.run_uninstrumented spec ~run_index));
    let t3 = now_ns () in
    inst_ns := !inst_ns + (t1 - t0);
    uninst_ns := !uninst_ns + (t3 - t2);
    let op = ms (t2 - t0) in
    lat := op :: !lat;
    if a.trace then if on then traced := op :: !traced else untraced := op :: !untraced;
    encoded := enc :: !encoded;
    sites := !sites + Array.length report.Report.observed_sites;
    preds := !preds + Array.length report.Report.true_preds;
    incr i
  done;
  let elapsed = secs (now_ns () - t_start) in
  let n = !i in
  let encoded = Array.of_list (List.rev !encoded) in
  (* correctness: the reports equal what the batch collector produces for
     the same spec and seed, on the first and last blocks of runs *)
  let check_block first count =
    let expect = Collect.collect_reports ~seed:a.seed ~first_run:(first_run + first) spec ~nruns:count in
    Array.iteri
      (fun j r ->
        if Codec.encode r <> encoded.(first + j) then
          fail "field: run %d differs from Collect.collect_reports" (first_run + first + j))
      expect
  in
  let block = min n 48 in
  check_block 0 block;
  if n > block then check_block (n - min (n - block) 48) (min (n - block) 48);
  let lat = Array.of_list !lat in
  let bytes = Array.fold_left (fun acc e -> acc + String.length e) 0 encoded in
  let fn = float_of_int n in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_per_s" "1/s" (fn /. elapsed);
      m "p50_ms" "ms" (P.median lat);
      m "p90_ms" "ms" (pct ~pct:90 lat);
      m "rss_mb" "MB" (peak_rss_mb None);
      m "stored_bytes_per_report" "B" (float_of_int bytes /. fn);
      m "overhead_x" "ratio" (float_of_int !inst_ns /. float_of_int !uninst_ns);
    ]
  in
  let layers =
    if not a.trace then []
    else
      [
        m "runtime.run_instrumented_ms" "ms" (span_median_ns "runtime.run_one" /. 1e6);
        m "runtime.run_uninstrumented_ms" "ms" (span_median_ns "runtime.run_uninstrumented" /. 1e6);
        m "instrument.observed_sites_per_run" "count" (float_of_int !sites /. fn);
        m "instrument.true_preds_per_run" "count" (float_of_int !preds /. fn);
        m "ingest.codec.encode_us" "us" (span_median_ns "ingest.codec.encode" /. 1e3);
        m "ingest.codec.bytes_per_report" "B" (float_of_int bytes /. fn);
      ]
      @ overhead_layers ~traced:(Array.of_list !traced) ~untraced:(Array.of_list !untraced)
  in
  { attempted = n; failed = 0; e2e; layers; notes = latency_notes "field op (run_one + encode)" lat }

(* --- the server under test: `cbi serve` with its CLI defaults --- *)

type child = { pid : int; addr : Wire.addr; mutable alive : bool }

let children : child list ref = ref []

let reap c =
  if c.alive then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    c.alive <- false
  end

let () = at_exit (fun () -> List.iter reap !children)

let client_timeout_ms = 30_000

let connect c =
  match Client.connect ~timeout_ms:client_timeout_ms ~retry:Sbi_fault.Retry.no_retry c.addr with
  | Ok cl -> cl
  | Error e -> fail "cannot connect to the server: %s" e

let request cl line =
  match Client.request cl line with
  | r -> r
  | exception (Wire.Timeout | End_of_file | Unix.Unix_error _) -> Error "transport failure"

let spawn_server a ~dir ~idx =
  let sock = Filename.concat dir "s.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile (Filename.concat dir "serve.out") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process a.cbi [| a.cbi; "serve"; idx; "--addr"; sock |] devnull out out in
  Unix.close devnull;
  Unix.close out;
  let c = { pid; addr = Wire.Unix_sock sock; alive = true } in
  children := c :: !children;
  (* up when it answers ping *)
  let deadline = now_ns () + 60_000_000_000 in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        c.alive <- false;
        fail "cbi serve exited during start-up (see %s)" (Filename.concat dir "serve.out"));
    if now_ns () > deadline then fail "cbi serve did not answer ping within 60 s";
    match Client.connect ~timeout_ms:5000 ~retry:Sbi_fault.Retry.no_retry c.addr with
    | Error _ ->
        Unix.sleepf 0.002;
        wait ()
    | Ok cl ->
        let r = request cl "ping" in
        Client.close cl;
        if r <> Ok ("pong", []) then fail "cbi serve answered ping with an error"
  in
  wait ();
  c

(* Stops where `cbi serve` did not exit within a second of SIGINT and
   got it again, and stops that ended in SIGKILL, for the report. *)
let stop_resends = ref 0
let stop_kills = ref 0

let stop_server c =
  if c.alive then begin
    let sigint () = try Unix.kill c.pid Sys.sigint with Unix.Unix_error _ -> () in
    sigint ();
    let t0 = now_ns () in
    let resent = ref false in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] c.pid with
      | 0, _ when now_ns () - t0 < 10_000_000_000 ->
          if (not !resent) && now_ns () - t0 > 1_000_000_000 then begin
            resent := true;
            incr stop_resends;
            sigint ()
          end;
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          incr stop_kills;
          reap c
      | _ -> c.alive <- false
    in
    wait ()
  end

(* [key value] lines of a reply, as an association list. *)
let kv lines =
  List.filter_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | None -> None)
    lines

let num kvs key =
  match List.assoc_opt key kvs with
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> nan)
  | None -> 0.

let query_kv c cmd =
  let cl = connect c in
  let r = request cl cmd in
  Client.close cl;
  match r with Ok (_, lines) -> kv lines | Error e -> fail "%s failed: %s" cmd e

(* --- the base corpus and index a server workload runs against --- *)

type base = {
  dir : string;
  log : string;
  idx : string;
  runs : Report.t array;  (* distinct collected reports *)
  copies : int;  (* the index holds passes 0 .. copies-1 of [runs] *)
  stride : int;
  meta : Dataset.t;
  server : child;
  collect_s : float;
  build_s : float;
}

let base_setup a ~distinct ~copies k =
  let dir = Filename.concat a.work (Printf.sprintf "rep%d" k) in
  mkdir_p dir;
  let log = Filename.concat dir "log" and idx = Filename.concat dir "idx" in
  let t0 = now_ns () in
  let spec = make_spec a.seed in
  let ds = Sbi_ingest.Par_collect.collect ~seed:a.seed ~domains:(collect_domains ()) spec ~nruns:distinct in
  let t1 = now_ns () in
  let runs = ds.Dataset.runs in
  let stride = P.stride (Array.map (fun (r : Report.t) -> r.Report.run_id) runs) in
  Shard_log.write_meta ~dir:log ds;
  let w = Shard_log.create_writer ~dir:log ~shard:0 () in
  for pass = 0 to copies - 1 do
    Array.iter
      (fun (r : Report.t) ->
        Shard_log.append_raw w { r with Report.run_id = P.remap ~stride ~pass r.Report.run_id })
      runs
  done;
  ignore (Shard_log.close_writer w);
  ignore (Index.build ~log ~dir:idx ());
  let t2 = now_ns () in
  let server = spawn_server a ~dir ~idx in
  {
    dir;
    log;
    idx;
    runs;
    copies;
    stride;
    meta = { ds with Dataset.runs = [||] };
    server;
    collect_s = secs (t1 - t0);
    build_s = secs (t2 - t1);
  }

let base_teardown b =
  stop_server b.server;
  rm_rf b.dir

(* The [k]-th replayed report of connection [conn]: a base report under a
   run id no earlier pass or other connection used. *)
let replayed b ~conns ~conn k =
  let j, pass = P.replay_slot ~nbase:(Array.length b.runs) ~conns ~conn ~first_pass:b.copies k in
  let r = b.runs.(j) in
  { r with Report.run_id = P.remap ~stride:b.stride ~pass r.Report.run_id }

(* --- in-process reference replies (the server's reply formats) --- *)

let fmt_score meta (sc : Sbi_core.Scores.t) =
  Printf.sprintf "%d %.6f %.6f %d %d %s" sc.Sbi_core.Scores.pred sc.Sbi_core.Scores.importance
    sc.Sbi_core.Scores.increase sc.Sbi_core.Scores.f sc.Sbi_core.Scores.s
    (Dataset.pred_text meta sc.Sbi_core.Scores.pred)

let ref_topk meta snap k =
  let scores = Snap.topk ~k snap in
  ( Printf.sprintf "topk %d" (List.length scores),
    List.mapi (fun i sc -> Printf.sprintf "%d %s" (i + 1) (fmt_score meta sc)) scores )

let ref_pred meta snap pred =
  let open Sbi_core.Scores in
  let sc = Snap.pred_detail snap ~pred in
  ( Printf.sprintf "pred %d" pred,
    [
      Printf.sprintf "text %s" (Dataset.pred_text meta pred);
      Printf.sprintf "site %d" meta.Dataset.pred_site.(pred);
      Printf.sprintf "f %d" sc.f;
      Printf.sprintf "s %d" sc.s;
      Printf.sprintf "f_obs %d" sc.f_obs;
      Printf.sprintf "s_obs %d" sc.s_obs;
      Printf.sprintf "failure %.6f" sc.failure;
      Printf.sprintf "context %.6f" sc.context;
      Printf.sprintf "increase %.6f" sc.increase;
      Printf.sprintf "increase_ci %.6f %.6f" sc.increase_ci.Sbi_util.Stats.lo sc.increase_ci.Sbi_util.Stats.hi;
      Printf.sprintf "importance %.6f" sc.importance;
      Printf.sprintf "importance_ci %.6f %.6f" sc.importance_ci.Sbi_util.Stats.lo
        sc.importance_ci.Sbi_util.Stats.hi;
    ] )

let ref_affinity meta snap pred k =
  let retained = Sbi_core.Prune.retained (Snap.counts snap) in
  let entries = Snap.affinity snap ~selected:pred ~others:retained in
  let lines =
    List.filteri (fun i _ -> i < k) entries
    |> List.map (fun (e : Sbi_core.Affinity.entry) ->
           Printf.sprintf "%d %.6f %.6f %.6f %s" e.Sbi_core.Affinity.pred e.Sbi_core.Affinity.drop
             e.Sbi_core.Affinity.importance_before e.Sbi_core.Affinity.importance_after
             (Dataset.pred_text meta e.Sbi_core.Affinity.pred))
  in
  (Printf.sprintf "affinity %d %d" pred (List.length lines), lines)

let expect_reply what got (want : string * string list) =
  match got with
  | Ok r when r = want -> ()
  | Ok _ -> fail "%s: the server's reply differs from the in-process Triage.Snap reference" what
  | Error e -> fail "%s: server error %s" what e

(* Read the shard log back: every acked id must be there.  Each server
   run appends to a fresh shard; the newest shard's reports (the running
   server's live tail) are returned in log order for the in-process
   reference. *)
let read_back b ~acked =
  let seen = Hashtbl.create 4096 in
  let shards = Shard_log.shard_files ~dir:b.log in
  let newest = List.fold_left (fun acc (shard, _) -> max acc shard) 0 shards in
  let ingested = ref [] in
  List.iter
    (fun (shard, path) ->
      let (), _ =
        Shard_log.fold_shard path ~init:() ~f:(fun () (r : Report.t) ->
            Hashtbl.replace seen r.Report.run_id ();
            if shard = newest && shard > 0 then ingested := r :: !ingested)
      in
      ())
    shards;
  List.iter
    (fun id -> if not (Hashtbl.mem seen id) then fail "acked run %d is not in the shard log" id)
    acked;
  List.rev !ingested

(* [stats] runs must equal the base index plus what this server acked. *)
let check_runs b server ~acked =
  let stats = query_kv server "stats" in
  let want_runs = (Array.length b.runs * b.copies) + acked in
  if int_of_float (num stats "runs") <> want_runs then
    fail "stats runs = %s, expected base + acked = %d"
      (Option.value ~default:"?" (List.assoc_opt "runs" stats))
      want_runs;
  stats

(* After a write workload: the runs check, then the server's final topk
   and affinity must equal the in-process reference over the same reports
   (the base index plus the server's ingest shard, read back from the
   log).  The server is stopped before the reference is built so the two
   never hold their copies at once. *)
let final_checks b ~acked ~server_acked =
  let stats = check_runs b b.server ~acked:server_acked in
  let cl = connect b.server in
  let srv_topk = request cl "topk 10" in
  let top =
    match srv_topk with
    | Ok (_, l :: _) -> (
        match String.split_on_char ' ' l with _ :: p :: _ -> int_of_string p | _ -> fail "bad topk line")
    | _ -> fail "final topk failed"
  in
  let srv_aff = request cl (Printf.sprintf "affinity %d 10" top) in
  Client.close cl;
  (stats, fun () ->
      let ingested = read_back b ~acked in
      let idx = Index.open_ ~dir:b.idx in
      List.iter (Index.append idx) ingested;
      let snap = Index.snapshot idx in
      expect_reply "final topk" srv_topk (ref_topk b.meta snap 10);
      expect_reply "final affinity" srv_aff (ref_affinity b.meta snap top 10))

type server_obs = {
  cpu0 : float;
  t0 : int;
  mutable cpu_s : float;
  mutable wall_s : float;
}

let obs_start c = { cpu0 = cpu_s c.pid; t0 = now_ns (); cpu_s = 0.; wall_s = 0. }

let obs_stop c o =
  o.cpu_s <- cpu_s c.pid -. o.cpu0;
  o.wall_s <- secs (now_ns () - o.t0)

(* The server's [fault.<kind>] counters, for the report. *)
let fault_note stats =
  match List.filter (fun (k, _) -> String.length k > 6 && String.sub k 0 6 = "fault.") stats with
  | [] -> "server faults: none"
  | l -> "server faults: " ^ String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ v) l)

let server_layers ~stats ~metrics ~obs ~nreports =
  let flushes = num stats "gc.flushes" and gc_reports = num stats "gc.reports" in
  let faults =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k > 6 && String.sub k 0 6 = "fault." then acc +. float_of_string v else acc)
      0. stats
  in
  [
    m "serve.cpu_ms_per_report" "ms"
      (if nreports > 0 then obs.cpu_s *. 1e3 /. float_of_int nreports else 0.);
    m "serve.busy_share" "ratio" (obs.cpu_s /. obs.wall_s);
    m "serve.gc.reports_per_flush" "count" (if flushes > 0. then gc_reports /. flushes else 0.);
    m "serve.gc.flushes" "count" flushes;
    m "serve.log.fsync_p50_us" "us" (num metrics "log.fsync.p50_us");
    m "serve.codec.decode_p50_us" "us" (num metrics "codec.decode.p50_us");
    m "serve.tail_runs" "count" (num stats "tail_runs");
    m "serve.segments" "count" (num stats "segments");
    m "serve.faults" "count" faults;
  ]

(* The server's own spans ([trace]) beside the benchmark's: parsed into
   (id, parent, name, duration) for the layer table. *)
let server_trace c =
  let cl = connect c in
  let r = request cl "trace" in
  Client.close cl;
  let parse_dur s =
    let num_part suffix = float_of_string (String.sub s 0 (String.length s - String.length suffix)) in
    if Filename.check_suffix s "ns" then num_part "ns"
    else if Filename.check_suffix s "us" then num_part "us" *. 1e3
    else if Filename.check_suffix s "ms" then num_part "ms" *. 1e6
    else num_part "s" *. 1e9
  in
  match r with
  | Error _ -> []
  | Ok (_, lines) ->
      List.filter_map
        (fun l ->
          let f = kv (List.map (fun w -> String.map (fun ch -> if ch = '=' then ' ' else ch) w) (String.split_on_char ' ' l)) in
          match (List.assoc_opt "span" f, List.assoc_opt "name" f, List.assoc_opt "dur" f) with
          | Some id, Some name, Some d ->
              Some
                ( int_of_string id,
                  Option.bind (List.assoc_opt "parent" f) int_of_string_opt,
                  "server:" ^ name,
                  int_of_float (parse_dur d) )
          | _ -> None)
        lines

let server_spans : (int * int option * string * int) list ref = ref []

(* Shared per-layer rows of the server workloads' set-up. *)
let setup_layers b ~collect_s ~build_s ~open_ms =
  let sites = Array.fold_left (fun acc (r : Report.t) -> acc + Array.length r.Report.observed_sites) 0 b.runs in
  let preds = Array.fold_left (fun acc (r : Report.t) -> acc + Array.length r.Report.true_preds) 0 b.runs in
  let n = float_of_int (Array.length b.runs) in
  [
    m "instrument.observed_sites_per_run" "count" (float_of_int sites /. n);
    m "instrument.true_preds_per_run" "count" (float_of_int preds /. n);
    m "corpus.collect_s" "s" collect_s;
    m "index.build_s" "s" build_s;
    m "index.open_ms" "ms" open_ms;
  ]

let timed_open b =
  let t0 = now_ns () in
  let idx = span ~on:true "index.open_" (fun _ -> Index.open_ ~dir:b.idx) in
  (idx, ms (now_ns () - t0))

(* Client-side encode cost of a report, as [Client.ingest_batch] pays it. *)
let client_encode_replay reports =
  List.iter
    (fun r ->
      let enc = span ~on:true "ingest.codec.encode" (fun _ -> Codec.encode r) in
      ignore (span ~on:true "serve.b64.encode" (fun _ -> Sbi_serve.B64.encode enc)))
    reports

(* The server's write path in process, for one batch: decode -> validate
   -> raw append -> one sync for the batch -> tail append. *)
let bare_write idx w batch =
  let payloads = List.map Codec.encode batch in
  let decoded = List.map (fun p -> span ~on:true "ingest.codec.decode" (fun _ -> Codec.decode p)) payloads in
  List.iter
    (fun r ->
      span ~on:true "index.validate" (fun _ -> Index.validate idx r);
      span ~on:true "ingest.shard_log.append_raw" (fun _ -> Shard_log.append_raw w r))
    decoded;
  span ~on:true "ingest.shard_log.sync" (fun _ -> Shard_log.sync w);
  List.iter (fun r -> span ~on:true "index.append" (fun _ -> Index.append idx r)) decoded

let write_path_layers () =
  [
    m "ingest.codec.decode_us" "us" (span_median_ns "ingest.codec.decode" /. 1e3);
    m "index.validate_us" "us" (span_median_ns "index.validate" /. 1e3);
    m "ingest.shard_log.append_us" "us" (span_median_ns "ingest.shard_log.append_raw" /. 1e3);
    m "ingest.shard_log.sync_ms" "ms" (span_median_ns "ingest.shard_log.sync" /. 1e6);
    m "index.append_us" "us" (span_median_ns "index.append" /. 1e3);
  ]

let client_layers reports =
  let bytes = List.fold_left (fun acc r -> acc + String.length (Codec.encode r)) 0 reports in
  [
    m "ingest.codec.encode_us" "us" (span_median_ns "ingest.codec.encode" /. 1e3);
    m "ingest.codec.bytes_per_report" "B" (float_of_int bytes /. float_of_int (max 1 (List.length reports)));
    m "serve.client.b64_encode_us" "us" (span_median_ns "serve.b64.encode" /. 1e3);
  ]

let rtt_layers () =
  [
    m "serve.client.batch_rtt_ms" "ms" (span_median_ns "serve.client.ingest_batch" /. 1e6);
    m "serve.client.topk_rtt_ms" "ms" (span_median_ns "serve.client.topk" /. 1e6);
    m "serve.client.pred_rtt_ms" "ms" (span_median_ns "serve.client.pred" /. 1e6);
    m "serve.client.affinity_rtt_ms" "ms" (span_median_ns "serve.client.affinity" /. 1e6);
  ]

let triage_layers () =
  [
    m "index.tail_segment_ms" "ms" (span_median_ns "index.tail_segment" /. 1e6);
    m "index.snapshot_rebuild_ms" "ms" (span_median_ns "index.snapshot" /. 1e6);
    m "triage.topk_ms" "ms" (span_median_ns "triage.topk" /. 1e6);
    m "triage.pred_ms" "ms" (span_median_ns "triage.pred_detail" /. 1e6);
    m "triage.affinity_ms" "ms" (span_median_ns "triage.affinity" /. 1e6);
    m "triage.affinity_first_ms" "ms" (span_median_ns "triage.affinity_first" /. 1e6);
  ]

let lru_layers idx =
  let st = Index.cache_stats idx in
  let lookups = st.Sbi_store.Lru.hits + st.Sbi_store.Lru.misses in
  [
    m "store.lru.hit_ratio" "ratio"
      (if lookups = 0 then 0. else float_of_int st.Sbi_store.Lru.hits /. float_of_int lookups);
    m "store.lru.evictions" "count" (float_of_int st.Sbi_store.Lru.evictions);
  ]

(* BENCHMARK.json's per_layer list, with units.  Every per-layer metric is
   printed for every workload; a layer the workload bypasses reads 0. *)
let all_layers =
  [
    ("runtime.run_instrumented_ms", "ms"); ("runtime.run_uninstrumented_ms", "ms");
    ("instrument.observed_sites_per_run", "count"); ("instrument.true_preds_per_run", "count");
    ("ingest.codec.encode_us", "us"); ("ingest.codec.bytes_per_report", "B");
    ("serve.client.b64_encode_us", "us"); ("serve.client.batch_rtt_ms", "ms");
    ("serve.client.topk_rtt_ms", "ms"); ("serve.client.pred_rtt_ms", "ms");
    ("serve.client.affinity_rtt_ms", "ms"); ("serve.cpu_ms_per_report", "ms"); ("serve.busy_share", "ratio");
    ("serve.gc.reports_per_flush", "count"); ("serve.gc.flushes", "count"); ("serve.log.fsync_p50_us", "us");
    ("serve.codec.decode_p50_us", "us"); ("serve.tail_runs", "count"); ("serve.segments", "count");
    ("serve.faults", "count"); ("ingest.codec.decode_us", "us"); ("index.validate_us", "us");
    ("ingest.shard_log.append_us", "us"); ("ingest.shard_log.sync_ms", "ms"); ("index.append_us", "us");
    ("index.tail_segment_ms", "ms"); ("index.snapshot_rebuild_ms", "ms"); ("triage.topk_ms", "ms");
    ("triage.pred_ms", "ms"); ("triage.affinity_ms", "ms"); ("triage.affinity_first_ms", "ms");
    ("store.lru.hit_ratio", "ratio"); ("store.lru.evictions", "count"); ("corpus.collect_s", "s");
    ("index.build_s", "s"); ("index.open_ms", "ms"); ("trace.overhead_us", "us");
    ("trace.overhead_share", "ratio");
  ]

(* BENCHMARK.json's end_to_end list.  Throughput and latency are printed
   in the report only: host drift moved their spread across ten seeds past
   the largest bound allowed (see perfbench/README.md). *)
let gated = [ "setup_s"; "rss_mb"; "stored_bytes_per_report"; "overhead_x" ]

(* --- ingest: write-only, two connections, batches of 32 --- *)

(* 32 mossim reports cost the server ~13 ms of CPU, well above the 2 ms
   group-commit timer, so a request is CPU-bound rather than timer-bound. *)
let ingest_batch_size = 32
let ingest_conns = 2

let send_batch cl batch =
  match Client.ingest_batch cl batch with
  | r -> r
  | exception (Wire.Timeout | End_of_file | Unix.Unix_error _) -> Error "transport failure"

let acked_all batch = function
  | Ok statuses ->
      List.length statuses = List.length batch
      && List.for_all2 (fun (r : Report.t) st -> st = Ok r.Report.run_id) batch statuses
  | Error _ -> false

(* Shared tail of the two write workloads: server-side observations, the
   durability and ranking checks, stored bytes per acked report. *)
let finish_write a b ~bytes0 ~acked ~server_acked =
  let nacked = List.length acked in
  if nacked = 0 then fail "no report was acked";
  let trace_spans = if a.trace then server_trace b.server else [] in
  let metrics = if a.trace then query_kv b.server "metrics" else [] in
  let t_check = now_ns () in
  let stats, reference = final_checks b ~acked ~server_acked in
  let check_note =
    Printf.sprintf "final server topk + affinity: %.2f s, server peak RSS after them %.1f MB"
      (secs (now_ns () - t_check)) (peak_rss_mb (Some b.server.pid))
  in
  stop_server b.server;
  let stored = float_of_int (disk_bytes b.log + disk_bytes b.idx - bytes0) /. float_of_int nacked in
  let t_ref = now_ns () in
  reference ();
  let ref_note =
    Printf.sprintf "in-process reference: %.2f s, benchmark peak RSS %.1f MB" (secs (now_ns () - t_ref))
      (peak_rss_mb None)
  in
  server_spans := trace_spans;
  (nacked, stats, metrics, stored, [ check_note; ref_note; fault_note stats ])

(* Ingest runs in rounds of [ingest_round_batches] batches per connection,
   each against a fresh `cbi serve` on the same base index (every start
   appends to a new shard of the same log).  The server keeps each acked
   report in its live tail at ~48 KB of RSS (ROADMAP item 1).  In one long
   round its peak RSS grew with however many reports the host managed to
   ack, so rss_mb measured host speed, and the final topk check peaked at
   ~2.5 GB.  Rounds of equal size see equal heaps. *)
let ingest_round_batches = 64
let ingest_replay_batches = 32

let ingest a =
  let b, setup_s = repeated_setup ~reps:3 ~teardown:base_teardown (base_setup a ~distinct:256 ~copies:1) in
  stop_server b.server;
  let bytes0 = disk_bytes b.log + disk_bytes b.idx in
  (* the run length counts ingest time only, not the restarts between rounds *)
  let budget_ns = int_of_float (a.seconds *. 1e9) and spent_ns = ref 0 in
  let next = Array.make ingest_conns 0 in
  let rounds = ref [] in
  let rec round k =
    let server = spawn_server a ~dir:b.dir ~idx:b.idx in
    let obs = obs_start server in
    let deadline = obs.t0 + budget_ns - !spent_ns in
    let r =
      run_conns ingest_conns (fun conn c ->
          let cl = connect server in
          let sent = ref 0 in
          while !sent < ingest_round_batches && now_ns () < deadline do
            let batch =
              List.init ingest_batch_size (fun j -> replayed b ~conns:ingest_conns ~conn (next.(conn) + j))
            in
            next.(conn) <- next.(conn) + ingest_batch_size;
            incr sent;
            let on = a.trace && c.attempted land 1 = 0 in
            let req = (k * 10_000_000) + (conn * 1_000_000) + c.attempted in
            c.attempted <- c.attempted + 1;
            let t0 = now_ns () in
            let r = span ~on ~req "serve.client.ingest_batch" (fun _ -> send_batch cl batch) in
            let dt = ms (now_ns () - t0) in
            if acked_all batch r then begin
              List.iter (fun (rep : Report.t) -> c.acked <- rep.Report.run_id :: c.acked) batch;
              record_lat c ~trace:a.trace ~on dt;
              c.sent <- batch :: c.sent
            end
            else c.failed <- c.failed + 1;
            sample_reference c ~every:1
          done;
          Client.close cl)
    in
    obs_stop server obs;
    spent_ns := !spent_ns + (now_ns () - obs.t0);
    let rss = peak_rss_mb (Some server.pid) in
    rounds := (r, obs, rss) :: !rounds;
    if !spent_ns < budget_ns then begin
      ignore (check_runs b server ~acked:(List.length r.acked));
      stop_server server;
      round (k + 1)
    end
    else (server, List.length r.acked)
  in
  let last, server_acked = round 0 in
  let rounds = !rounds in
  let all = merge (List.map (fun (r, _, _) -> r) rounds) in
  let lat = Array.of_list all.lat and acked = all.acked and sent = all.sent in
  let sum f = List.fold_left (fun acc (_, o, _) -> acc +. f o) 0. rounds in
  let obs = { cpu0 = 0.; t0 = 0; cpu_s = sum (fun o -> o.cpu_s); wall_s = sum (fun o -> o.wall_s) } in
  let rss = List.fold_left (fun acc (_, _, r) -> Float.max acc r) 0. rounds in
  let b = { b with server = last } in
  let nacked, stats, metrics, stored, check_notes = finish_write a b ~bytes0 ~acked ~server_acked in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_per_s" "1/s" (float_of_int nacked /. obs.wall_s);
      m "p50_ms" "ms" (P.median lat);
      m "p90_ms" "ms" (pct ~pct:90 lat);
      m "rss_mb" "MB" rss;
      m "stored_bytes_per_report" "B" stored;
      m "overhead_x" "ratio" (reference_ratio all);
    ]
  in
  let layers =
    if not a.trace then []
    else begin
      let reports = List.concat sent in
      client_encode_replay reports;
      (* replay: the first sent batches pushed through the server's write
         path in process *)
      let idx, open_ms = timed_open b in
      let replay_log = Filename.concat b.dir "replay-log" in
      Shard_log.write_meta ~dir:replay_log b.meta;
      let w = Shard_log.create_writer ~dir:replay_log ~shard:0 () in
      List.iteri (fun i batch -> if i < ingest_replay_batches then bare_write idx w batch) (List.rev sent);
      ignore (Shard_log.close_writer w);
      client_layers reports @ rtt_layers ()
      @ server_layers ~stats ~metrics ~obs ~nreports:nacked
      @ write_path_layers ()
      @ setup_layers b ~collect_s:b.collect_s ~build_s:b.build_s ~open_ms
      @ overhead_layers ~traced:(Array.of_list all.traced) ~untraced:(Array.of_list all.untraced)
    end
  in
  base_teardown b;
  {
    attempted = all.attempted;
    failed = all.failed;
    e2e;
    layers;
    notes =
      latency_notes "ingest-batch round trip" lat
      @ [
          Printf.sprintf "%d round(s) of up to %d reports, %d acked" (List.length rounds)
            (ingest_conns * ingest_round_batches * ingest_batch_size) nacked;
          reference_note all;
        ]
      @ check_notes;
  }

(* --- live: ingest beside reads on one connection --- *)

let live_batch_size = 3

(* Each iteration re-encodes a tail that grew since the last one, so a run
   of a few seconds holds only ~100 of them: live measures for at least
   the run length and at least as many iterations as p95 needs. *)
let live_min_ops = P.min_samples ~pct:95

let live a =
  let b, setup_s = repeated_setup ~reps:3 ~teardown:base_teardown (base_setup a ~distinct:300 ~copies:1) in
  let bytes0 = disk_bytes b.log + disk_bytes b.idx in
  let top =
    match List.assoc_opt "1" (query_kv b.server "topk 1") with
    | Some rest -> (
        match String.split_on_char ' ' rest with p :: _ -> int_of_string p | [] -> fail "bad topk line")
    | None -> fail "live: warm-up topk failed"
  in
  let aff_cmd = Printf.sprintf "affinity %d 10" top in
  let obs = ref (obs_start b.server) in
  let r =
    run_conns 1 (fun _ c ->
        let cl = connect b.server in
        let affinity () =
          match request cl aff_cmd with Ok _ -> true | Error _ -> false
        in
        (* the first affinity after open pays the cold posting loads *)
        ignore (affinity ());
        obs := obs_start b.server;
        let deadline = now_ns () + int_of_float (a.seconds *. 1e9) in
        while now_ns () < deadline || c.attempted < live_min_ops do
          let batch =
            List.init live_batch_size (fun j -> replayed b ~conns:1 ~conn:0 ((c.attempted * live_batch_size) + j))
          in
          let on = a.trace && c.attempted land 1 = 0 in
          let req = c.attempted in
          c.attempted <- c.attempted + 1;
          let t0 = now_ns () in
          let ok =
            span ~on ~req "live.ingest_to_visible" (fun parent ->
                let r = span ~on ?parent ~req "serve.client.ingest_batch" (fun _ -> send_batch cl batch) in
                acked_all batch r && span ~on ?parent ~req "serve.client.affinity" (fun _ -> affinity ()))
          in
          let dt = ms (now_ns () - t0) in
          if ok then begin
            List.iter (fun (rep : Report.t) -> c.acked <- rep.Report.run_id :: c.acked) batch;
            c.sent <- batch :: c.sent;
            record_lat c ~trace:a.trace ~on dt
          end
          else c.failed <- c.failed + 1;
          sample_reference c ~every:1
        done;
        Client.close cl)
  in
  obs_stop b.server !obs;
  let obs = !obs in
  let lat = Array.of_list r.lat and acked = r.acked and sent = List.rev r.sent in
  let rss = peak_rss_mb (Some b.server.pid) in
  let nacked, stats, metrics, stored, check_notes =
    finish_write a b ~bytes0 ~acked ~server_acked:(List.length acked)
  in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_per_s" "1/s" (float_of_int nacked /. obs.wall_s);
      m "p50_ms" "ms" (P.median lat);
      m "p90_ms" "ms" (pct ~pct:90 lat);
      m "rss_mb" "MB" rss;
      m "stored_bytes_per_report" "B" stored;
      m "overhead_x" "ratio" (reference_ratio r);
    ]
  in
  let layers =
    if not a.trace then []
    else begin
      let reports = List.concat sent in
      client_encode_replay reports;
      (* replay: the same batches appended in process, each followed by
         the tail re-encode, the snapshot rebuild and the first (cold)
         and a second (warm) affinity *)
      let idx, open_ms = timed_open b in
      let deadline = now_ns () + int_of_float (a.seconds *. 1e9) in
      let snap0 = Index.snapshot idx in
      ignore (Snap.affinity snap0 ~selected:top ~others:(Sbi_core.Prune.retained (Snap.counts snap0)));
      List.iter
        (fun batch ->
          if now_ns () < deadline then begin
            List.iter (Index.append idx) batch;
            ignore (span ~on:true "index.tail_segment" (fun _ -> Index.tail_segment idx));
            let snap = span ~on:true "index.snapshot" (fun _ -> Index.snapshot idx) in
            let others = Sbi_core.Prune.retained (Snap.counts snap) in
            ignore (span ~on:true "triage.affinity_first" (fun _ -> Snap.affinity snap ~selected:top ~others));
            ignore (span ~on:true "triage.affinity" (fun _ -> Snap.affinity snap ~selected:top ~others))
          end)
        sent;
      client_layers reports @ rtt_layers ()
      @ server_layers ~stats ~metrics ~obs ~nreports:nacked
      @ triage_layers () @ lru_layers idx
      @ setup_layers b ~collect_s:b.collect_s ~build_s:b.build_s ~open_ms
      @ overhead_layers ~traced:(Array.of_list r.traced) ~untraced:(Array.of_list r.untraced)
    end
  in
  base_teardown b;
  {
    attempted = r.attempted;
    failed = r.failed;
    e2e;
    layers;
    notes =
      latency_notes "ingest-to-visible" lat
      @ [ reference_note r ]
      @ check_notes;
  }

(* --- triage: read-only query mix on one connection --- *)

(* One connection: with two, the server's two dispatch threads contend and
   throughput swung 82-186 queries/s between runs of the same seed. *)
let triage_conns = 1
let triage_npreds = 48
let triage_naff = 5

type query = Topk | Pred of int | Affinity of int

let query_line = function
  | Topk -> "topk 10"
  | Pred p -> Printf.sprintf "pred %d" p
  | Affinity p -> Printf.sprintf "affinity %d 10" p

let query_class = function Topk -> "topk" | Pred _ -> "pred" | Affinity _ -> "affinity"

(* A query takes ~5 ms on average; one reference per 8 keeps the
   reference's share of the measured phase to about 1 %. *)
let triage_reference_every = 8

let local_answer snap = function
  | Topk -> ignore (Snap.topk ~k:10 snap)
  | Pred p -> ignore (Snap.pred_detail snap ~pred:p)
  | Affinity p ->
      ignore (Snap.affinity snap ~selected:p ~others:(Sbi_core.Prune.retained (Snap.counts snap)))

let triage a =
  let b, setup_s = repeated_setup ~reps:3 ~teardown:base_teardown (base_setup a ~distinct:400 ~copies:8) in
  (* the in-process reference, and the fixed seeded query set *)
  let ref_idx = Index.open_ ~dir:b.idx in
  let snap = Index.snapshot ref_idx in
  let top = List.map (fun sc -> sc.Sbi_core.Scores.pred) (Snap.topk ~k:triage_naff snap) in
  let rng = Random.State.make [| a.seed; 0x7219 |] in
  let preds = Array.init triage_npreds (fun _ -> Random.State.int rng b.meta.Dataset.npreds) in
  let affs = Array.of_list top in
  let distinct = (Topk :: Array.to_list (Array.map (fun p -> Pred p) preds)) @ List.map (fun p -> Affinity p) top in
  let want = Hashtbl.create 64 in
  List.iter
    (fun q ->
      Hashtbl.replace want (query_line q)
        (match q with
        | Topk -> ref_topk b.meta snap 10
        | Pred p -> ref_pred b.meta snap p
        | Affinity p -> ref_affinity b.meta snap p 10))
    distinct;
  (* warm-up, which is also the check of every distinct query *)
  let cl = connect b.server in
  List.iter
    (fun q -> expect_reply (query_line q) (request cl (query_line q)) (Hashtbl.find want (query_line q)))
    distinct;
  Client.close cl;
  (* the mix: 30 % pred, 50 % topk, 20 % affinity on the top-ranked
     predicates, cheapest class first.  p50 falls 40 % into the topk
     class and p90 at the affinity class's median, not on the cliff
     between two classes.  Queries are dealt from shuffled decks of ten,
     so every run holds the classes in exactly these shares *)
  let dealer rng =
    let deck = [| `P; `P; `P; `T; `T; `T; `T; `T; `A; `A |] in
    let pos = ref (Array.length deck) in
    fun () ->
      if !pos = Array.length deck then begin
        for i = Array.length deck - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = deck.(i) in
          deck.(i) <- deck.(j);
          deck.(j) <- t
        done;
        pos := 0
      end;
      let cls = deck.(!pos) in
      incr pos;
      match cls with
      | `P -> Pred preds.(Random.State.int rng triage_npreds)
      | `T -> Topk
      | `A -> Affinity affs.(Random.State.int rng (Array.length affs))
  in
  let obs = obs_start b.server in
  let deadline = now_ns () + int_of_float (a.seconds *. 1e9) in
  let r =
    run_conns triage_conns (fun conn c ->
        let cl = connect b.server in
        let draw = dealer (Random.State.make [| a.seed; conn |]) in
        while now_ns () < deadline do
          let q = draw () in
          let line = query_line q in
          let on = a.trace && c.attempted land 1 = 0 in
          let req = (conn * 1_000_000) + c.attempted in
          c.attempted <- c.attempted + 1;
          let t0 = now_ns () in
          let r = span ~on ~req ("serve.client." ^ query_class q) (fun _ -> request cl line) in
          let dt = ms (now_ns () - t0) in
          match r with
          | Ok _ ->
              if r <> Ok (Hashtbl.find want line) then
                fail "triage: reply to %S differs from the in-process reference" line;
              record_lat c ~trace:a.trace ~on dt;
              sample_reference c ~every:triage_reference_every
          | Error _ -> c.failed <- c.failed + 1
        done;
        Client.close cl)
  in
  obs_stop b.server obs;
  let lat = Array.of_list r.lat in
  let trace_spans = if a.trace then server_trace b.server else [] in
  let stats = query_kv b.server "stats" in
  let metrics = if a.trace then query_kv b.server "metrics" else [] in
  let rss = peak_rss_mb (Some b.server.pid) in
  stop_server b.server;
  server_spans := trace_spans;
  let nruns = Array.length b.runs * b.copies in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "throughput_per_s" "1/s" (float_of_int (Array.length lat) /. obs.wall_s);
      m "p50_ms" "ms" (P.median lat);
      m "p90_ms" "ms" (pct ~pct:90 lat);
      m "rss_mb" "MB" rss;
      m "stored_bytes_per_report" "B" (float_of_int (disk_bytes b.log + disk_bytes b.idx) /. float_of_int nruns);
      m "overhead_x" "ratio" (reference_ratio r);
    ]
  in
  let layers =
    if not a.trace then []
    else begin
      (* replay on the reference index: each query class on the warm
         snapshot, and the first affinity after a fresh snapshot *)
      let draw = dealer (Random.State.make [| a.seed; 0x5eed |]) in
      for _ = 1 to 600 do
        let q = draw () in
        span ~on:true
          (match q with Topk -> "triage.topk" | Pred _ -> "triage.pred_detail" | Affinity _ -> "triage.affinity")
          (fun _ -> local_answer snap q)
      done;
      let lru = lru_layers ref_idx in
      let fresh, open_ms = timed_open b in
      let fsnap = span ~on:true "index.snapshot" (fun _ -> Index.snapshot fresh) in
      let others = Sbi_core.Prune.retained (Snap.counts fsnap) in
      ignore (span ~on:true "triage.affinity_first" (fun _ -> Snap.affinity fsnap ~selected:(List.hd top) ~others));
      rtt_layers ()
      @ server_layers ~stats ~metrics ~obs ~nreports:0
      @ triage_layers () @ lru
      @ setup_layers b ~collect_s:b.collect_s ~build_s:b.build_s ~open_ms
      @ overhead_layers ~traced:(Array.of_list r.traced) ~untraced:(Array.of_list r.untraced)
    end
  in
  base_teardown b;
  {
    attempted = r.attempted;
    failed = r.failed;
    e2e;
    layers;
    notes =
      latency_notes "query round trip" lat
      @ [ reference_note r; fault_note stats ];
  }


(* --- output --- *)

let json_num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun mt -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_num mt.value) mt.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed (String.concat ", " ms)

let layer_table () =
  let own = List.map (fun (s, self) -> (s.P.name, P.dur s, self)) (P.self_times !spans) in
  let srv = P.self_times_dur !server_spans in
  P.table (own @ srv)

let main () =
  let a = try parse_args () with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2 in
  let run =
    match a.workload with
    | "field" -> field
    | "ingest" -> ingest
    | "live" -> live
    | "triage" -> triage
    | w ->
        prerr_endline ("pb: unknown workload " ^ w);
        exit 2
  in
  if a.cbi = "" || a.work = "" then begin
    prerr_endline "pb: --cbi and --work are required";
    exit 2
  end;
  mkdir_p a.work;
  let host_cores = cores () and host_fsync = fsync_p50_us a.work and host_cpu = cpu_probe_s () in
  let host =
    Printf.sprintf "host: %d cores, fsync(64 KiB) p50 %.1f us, cpu probe median %.4f s" host_cores host_fsync
      host_cpu
  in
  let t0 = now_ns () in
  let r, err = match run a with r -> (Some r, None) | exception Mismatch msg -> (None, Some msg) in
  let wall = secs (now_ns () - t0) in
  (* the report goes to stdout and, whole, to the run record *)
  let report = Buffer.create 4096 in
  let say fmt = Printf.ksprintf (fun l -> Buffer.add_string report (l ^ "\n")) fmt in
  say "workload %s, seed %d, %s run, %.1f s measured, %.1f s wall" a.workload a.seed
    (if a.trace then "traced" else "untraced")
    a.seconds wall;
  say "%s" host;
  let row mt = say "  %-36s %14.4f %s" mt.name mt.value mt.unit_ in
  (match r with
  | None -> ()
  | Some r ->
      List.iter (say "%s") r.notes;
      say "operations: %d attempted, %d failed" r.attempted r.failed;
      List.iter
        (fun mt ->
          if List.mem mt.name gated then row mt
          else say "  %-36s %14.4f %s   (report only)" mt.name mt.value mt.unit_)
        r.e2e;
      if a.trace then begin
        say "%-40s %8s %12s %12s" "span (server: = cbi serve's own)" "count" "busy_ms" "self_ms";
        List.iter
          (fun (t : P.layer_row) ->
            say "%-40s %8d %12.3f %12.3f" t.P.layer t.P.count (ms t.P.busy_ns) (ms t.P.self_ns))
          (layer_table ());
        List.iter row r.layers;
        (* written out now that the run is over *)
        let oc = open_out (a.out ^ ".spans.tsv") in
        output_string oc "id\tparent\treq\tname\tstart_ns\tstop_ns\n";
        List.iter
          (fun s ->
            Printf.fprintf oc "%d\t%s\t%d\t%s\t%d\t%d\n" s.P.id
              (match s.P.parent with Some p -> string_of_int p | None -> "-")
              s.P.req s.P.name s.P.start_ns s.P.stop_ns)
          (List.rev !spans);
        close_out oc
      end);
  let metrics =
    match r with
    | None -> []
    | Some r when a.trace ->
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun mt -> mt.name = name) r.layers with
            | Some mt when mt.unit_ = unit_ -> mt
            | Some mt -> invalid_arg (Printf.sprintf "metric %s is in %s, not %s" name mt.unit_ unit_)
            | None -> m name unit_ 0.)
          all_layers
    | Some r -> List.filter (fun mt -> List.mem mt.name gated) r.e2e
  in
  let err =
    match (err, List.find_opt (fun mt -> not (Float.is_finite mt.value)) metrics) with
    | None, Some mt -> Some (Printf.sprintf "metric %s is not a finite number" mt.name)
    | e, _ -> e
  in
  if !stop_resends > 0 then
    say "cbi serve outlived SIGINT by 1 s %d time(s); %d of those ended in SIGKILL after 10 s" !stop_resends
      !stop_kills;
  Option.iter (say "CHECK FAILED: %s") err;
  let correct = err = None in
  let attempted, failed = match r with Some r -> (r.attempted, r.failed) | None -> (1, 1) in
  let metrics = if correct then metrics else [] in
  say "%s" (json_line ~correct ~attempted ~failed metrics);
  if a.out <> "" then begin
    let oc = open_out a.out in
    Buffer.output_buffer oc report;
    close_out oc
  end;
  print_string (Buffer.contents report);
  exit (if correct then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  main ()

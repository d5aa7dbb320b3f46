(* Pure arithmetic shared by the benchmark runner and its self-tests:
   order statistics, span self time, and replay run-id remapping. *)

(* --- order statistics --- *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let a = sorted samples in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean samples =
  let n = Array.length samples in
  if n = 0 then nan else Array.fold_left ( +. ) 0. samples /. float_of_int n

(* Nearest-rank percentile: the value at 1-based rank ceil(pct * n / 100)
   of the sorted samples, computed in integers so that 95 % of 200 is
   rank 190 exactly. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

(* Samples strictly above the percentile's rank. *)
let beyond ~pct n = n - rank ~pct n

(* The percentile rule: a percentile is reported only when at least ten
   samples lie beyond it, so that it is not set by one or two outliers. *)
let min_beyond = 10

let percentile ~pct samples =
  let n = Array.length samples in
  if n = 0 || beyond ~pct n < min_beyond then None
  else Some (sorted samples).(rank ~pct n - 1)

(* Smallest sample count at which [percentile ~pct] is defined. *)
let min_samples ~pct =
  let rec go n = if beyond ~pct n >= min_beyond then n else go (n + 1) in
  go 1

(* --- spans --- *)

type span = {
  id : int;
  parent : int option;
  name : string;
  req : int;  (* request id shared by the spans of one operation; -1 if none *)
  start_ns : int;
  stop_ns : int;
}

let dur s = s.stop_ns - s.start_ns

(* Length of the union of [intervals] clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover (overlapping children count once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start_ns, s.stop_ns)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, dur s - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans

(* Spans known only by duration (the server's [trace] lines carry no
   start time): children ran inside the parent on the same thread, one
   after another, so self time is the duration minus the children's
   summed durations, floored at zero. *)
let self_times_dur (spans : (int * int option * string * int) list) =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun (_, parent, _, d) ->
      match parent with
      | Some p ->
          Hashtbl.replace child_sum p (d + Option.value ~default:0 (Hashtbl.find_opt child_sum p))
      | None -> ())
    spans;
  List.map
    (fun (id, _, name, d) ->
      (name, d, max 0 (d - Option.value ~default:0 (Hashtbl.find_opt child_sum id))))
    spans

type layer_row = { layer : string; count : int; busy_ns : int; self_ns : int }

(* Per-name totals: call count, busy time (summed durations) and self
   time, sorted by name. *)
let table (rows : (string * int * int) list) =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (name, d, self) ->
      let c, b, s = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc name) in
      Hashtbl.replace acc name (c + 1, b + d, s + self))
    rows;
  Hashtbl.fold
    (fun layer (count, busy_ns, self_ns) l -> { layer; count; busy_ns; self_ns } :: l)
    acc []
  |> List.sort (fun a b -> compare a.layer b.layer)

(* --- replay run ids --- *)

(* Replaying a base corpus many times must not produce duplicate run
   ids: pass [p] shifts every id by [p * stride], where the stride
   exceeds the largest base id.  Pass 0 is the base itself. *)
let stride base_ids = 1 + Array.fold_left max 0 base_ids

let remap ~stride ~pass id = id + (pass * stride)

(* The [k]-th report (0-based) that connection [conn] of [conns] sends,
   replaying a base of [nbase] reports from pass [first_pass] onward:
   connections take interleaved passes, so no two connections and no two
   rounds ever send the same id.  Returns (base index, pass). *)
let replay_slot ~nbase ~conns ~conn ~first_pass k =
  (k mod nbase, first_pass + conn + (conns * (k / nbase)))

(* Self-tests of the benchmark's own arithmetic: the percentile rule,
   span self time, and replay run-id remapping.  Run with
   `dune build @perfbench/runtest` (also part of `dune runtest`). *)

module P = Pbstats

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let floats n = Array.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  (* nearest rank, in integers: 95 % of 200 is rank 190 *)
  check "rank p95 n=200" (P.rank ~pct:95 200 = 190);
  check "rank p50 n=7" (P.rank ~pct:50 7 = 4);
  check "rank p99 n=1000" (P.rank ~pct:99 1000 = 990);
  (* defined only with at least ten samples beyond the rank *)
  check "p95 undefined at 199" (P.percentile ~pct:95 (floats 199) = None);
  check "p95 at 200" (P.percentile ~pct:95 (floats 200) = Some 190.);
  check "p99 undefined at 999" (P.percentile ~pct:99 (floats 999) = None);
  check "p99 at 1000" (P.percentile ~pct:99 (floats 1000) = Some 990.);
  check "p90 at 100" (P.percentile ~pct:90 (floats 100) = Some 90.);
  check "p50 undefined at 19" (P.percentile ~pct:50 (floats 19) = None);
  check "empty" (P.percentile ~pct:50 [||] = None);
  check "min samples" (P.min_samples ~pct:90 = 100 && P.min_samples ~pct:95 = 200 && P.min_samples ~pct:99 = 1000);
  (* order of the input does not matter *)
  let shuffled = Array.init 300 (fun i -> float_of_int ((i * 7919) mod 300)) in
  check "unsorted input" (P.percentile ~pct:95 shuffled = Some 284.);
  check "median even" (P.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median odd" (P.median [| 5.; 1.; 3. |] = 3.)

let span id parent start_ns stop_ns = { P.id; parent; name = Printf.sprintf "s%d" id; req = 0; start_ns; stop_ns }

let self_time () =
  (* children [10,30) and [20,50) overlap, [90,120) runs past the parent:
     the parent's covered time is [10,50) + [90,100) = 50 *)
  let spans = [ span 1 None 0 100; span 2 (Some 1) 10 30; span 3 (Some 1) 20 50; span 4 (Some 1) 90 120 ] in
  let self = List.map (fun (s, t) -> (s.P.id, t)) (P.self_times spans) in
  check "parent self" (List.assoc 1 self = 50);
  check "leaf self = duration" (List.assoc 2 self = 20 && List.assoc 4 self = 30);
  check "no children" (P.self_times [ span 7 None 5 9 ] |> List.map snd = [ 4 ]);
  (* grandchildren count against their own parent only *)
  let nested = [ span 1 None 0 100; span 2 (Some 1) 0 60; span 3 (Some 2) 0 40 ] in
  let self = List.map (fun (s, t) -> (s.P.id, t)) (P.self_times nested) in
  check "nested" (List.assoc 1 self = 40 && List.assoc 2 self = 20 && List.assoc 3 self = 40);
  (* duration-only spans: children summed, floored at zero *)
  let d = P.self_times_dur [ (1, None, "a", 100); (2, Some 1, "b", 30); (3, Some 1, "b", 50); (4, None, "c", 10); (5, Some 4, "d", 25) ] in
  check "dur self" (List.map (fun (_, _, s) -> s) d = [ 20; 30; 50; 0; 25 ]);
  (* the table sums per name *)
  let rows = P.table [ ("x", 10, 4); ("y", 5, 5); ("x", 20, 6) ] in
  check "table"
    (rows
    = [ { P.layer = "x"; count = 2; busy_ns = 30; self_ns = 10 }; { P.layer = "y"; count = 1; busy_ns = 5; self_ns = 5 } ])

let remapping () =
  let base = [| 0; 3; 7; 2 |] in
  let stride = P.stride base in
  check "stride exceeds every base id" (stride = 8);
  (* an index holding passes 0 and 1 of the base, replayed by two
     connections from pass 2 on: no id repeats, none hits the index *)
  let copies = 2 in
  let seen = Hashtbl.create 1024 in
  for pass = 0 to copies - 1 do
    Array.iter (fun id -> Hashtbl.replace seen (P.remap ~stride ~pass id) ()) base
  done;
  let dup = ref false in
  for conn = 0 to 1 do
    for k = 0 to 99 do
      let j, pass = P.replay_slot ~nbase:(Array.length base) ~conns:2 ~conn ~first_pass:copies k in
      let id = P.remap ~stride ~pass base.(j) in
      if Hashtbl.mem seen id then dup := true;
      Hashtbl.replace seen id ()
    done
  done;
  check "no duplicate ids across passes and connections" (not !dup);
  check "every id kept" (Hashtbl.length seen = (copies * 4) + 200);
  (* a single connection walks the base in order, one pass per round *)
  check "slot order"
    (List.init 6 (P.replay_slot ~nbase:4 ~conns:1 ~conn:0 ~first_pass:1) = [ (0, 1); (1, 1); (2, 1); (3, 1); (0, 2); (1, 2) ])

let () =
  percentile_rule ();
  self_time ();
  remapping ();
  if !failures > 0 then begin
    Printf.printf "%d perfbench self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "perfbench self-tests: ok"

(* Statistics helpers: Welford summaries, histograms, rate estimators,
   tables.  These feed every reported number, so they get exact checks. *)

let summary_basics () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5. (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 2. (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9. (Stats.Summary.max s);
  (* Sample variance of this classic data set is 32/7. *)
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Stats.Summary.variance s)

let summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 1e-9)) "mean of empty" 0. (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance of empty" 0. (Stats.Summary.variance s)

let summary_single () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 42.;
  Alcotest.(check (float 1e-9)) "mean" 42. (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" 0. (Stats.Summary.variance s)

let summary_merge_equals_combined =
  QCheck.Test.make ~name:"summary: merge == adding everything to one" ~count:100
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let a = Stats.Summary.create () and b = Stats.Summary.create () in
      List.iter (Stats.Summary.add a) xs;
      List.iter (Stats.Summary.add b) ys;
      let merged = Stats.Summary.merge a b in
      let direct = Stats.Summary.create () in
      List.iter (Stats.Summary.add direct) (xs @ ys);
      let close u v = Float.abs (u -. v) < 1e-6 *. (1. +. Float.abs u +. Float.abs v) in
      Stats.Summary.count merged = Stats.Summary.count direct
      && close (Stats.Summary.mean merged) (Stats.Summary.mean direct)
      && close (Stats.Summary.variance merged) (Stats.Summary.variance direct))

let summary_sum () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3. ];
  Alcotest.(check (float 1e-9)) "sum" 6. (Stats.Summary.sum s)

(* --- Timeseries ------------------------------------------------------- *)

let timeseries_roundtrip () =
  let ts = Stats.Timeseries.create ~name:"t" () in
  Stats.Timeseries.add ts ~time:1. 10.;
  Stats.Timeseries.add ts ~time:2. 20.;
  Stats.Timeseries.add ts ~time:3. 30.;
  Alcotest.(check int) "length" 3 (Stats.Timeseries.length ts);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "points" [ (1., 10.); (2., 20.); (3., 30.) ]
    (Array.to_list (Stats.Timeseries.points ts));
  Alcotest.(check (list (float 1e-9))) "window" [ 20. ] (Stats.Timeseries.values_in ts ~lo:1.5 ~hi:2.5);
  Alcotest.(check (float 1e-9)) "max" 30. (Stats.Timeseries.max_value ts)

let timeseries_csv () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time:1. 2.;
  let csv = Stats.Timeseries.to_csv ts in
  Alcotest.(check bool) "header" true (String.length csv > 10 && String.sub csv 0 10 = "time,value")

(* --- Rate estimators -------------------------------------------------- *)

let ewma_tracks_constant_rate () =
  let e = Stats.Rate.Ewma.create ~tau:1.0 in
  (* 1000 bytes every 10 ms = 100 KB/s, driven for 5 time constants. *)
  for i = 1 to 500 do
    Stats.Rate.Ewma.observe e ~now:(float_of_int i *. 0.01) ~bytes:1000
  done;
  let r = Stats.Rate.Ewma.rate e ~now:5.0 in
  Alcotest.(check bool) "within 10%" true (Float.abs (r -. 100_000.) < 10_000.)

let ewma_decays () =
  let e = Stats.Rate.Ewma.create ~tau:1.0 in
  for i = 1 to 100 do
    Stats.Rate.Ewma.observe e ~now:(float_of_int i *. 0.01) ~bytes:1000
  done;
  let before = Stats.Rate.Ewma.rate e ~now:1.0 in
  let after = Stats.Rate.Ewma.rate e ~now:4.0 in
  Alcotest.(check bool) "decayed" true (after < before /. 10.)

(* --- Table ------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let table_renders () =
  let t = Stats.Table.create ~columns:[ "a"; "b" ] in
  Stats.Table.add_row t [ "1"; "hello" ];
  Stats.Table.add_rowf t "%d\t%s" 2 "world";
  let rendered = Stats.Table.render t in
  Alcotest.(check bool) "contains hello" true (contains rendered "hello");
  Alcotest.(check bool) "contains world" true (contains rendered "world")

let table_csv_quotes () =
  let t = Stats.Table.create ~columns:[ "x" ] in
  Stats.Table.add_row t [ "with,comma" ];
  let csv = Stats.Table.to_csv t in
  Alcotest.(check string) "quoted" "x\n\"with,comma\"\n" csv

let table_rejects_ragged_rows () =
  let t = Stats.Table.create ~columns:[ "a"; "b" ] in
  match Stats.Table.add_row t [ "only one" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "ragged row accepted"

let table_row_order () =
  let t = Stats.Table.create ~columns:[ "x" ] in
  Stats.Table.add_row t [ "first" ];
  Stats.Table.add_row t [ "second" ];
  Alcotest.(check (list (list string))) "order" [ [ "first" ]; [ "second" ] ] (Stats.Table.rows t)

let suite =
  [
    Alcotest.test_case "summary basics" `Quick summary_basics;
    Alcotest.test_case "summary empty" `Quick summary_empty;
    Alcotest.test_case "summary single" `Quick summary_single;
    QCheck_alcotest.to_alcotest summary_merge_equals_combined;
    Alcotest.test_case "summary sum" `Quick summary_sum;
    Alcotest.test_case "timeseries roundtrip" `Quick timeseries_roundtrip;
    Alcotest.test_case "timeseries csv" `Quick timeseries_csv;
    Alcotest.test_case "ewma constant rate" `Quick ewma_tracks_constant_rate;
    Alcotest.test_case "ewma decay" `Quick ewma_decays;
    Alcotest.test_case "table render" `Quick table_renders;
    Alcotest.test_case "table csv quoting" `Quick table_csv_quotes;
    Alcotest.test_case "table ragged" `Quick table_rejects_ragged_rows;
    Alcotest.test_case "table order" `Quick table_row_order;
  ]

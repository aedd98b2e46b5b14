(* Guard against metadata drift between the committed bench reports and
   the README tables: both are regenerated in lockstep on the same host,
   so the figures quoted in the README's "Committed" columns must match
   the JSON within a small tolerance.  Four tables are covered: the §6.1
   per-packet table against BENCH_pps.json, the million-sender scale
   table against BENCH_scale.json's "gates" object, the five-scheme
   table against BENCH_report.json, and the end-to-end layer breakdown
   against the per-layer values of BENCH_e2e.json (a traced e2e_bench
   report).

     dune exec bench/readme_check.exe -- \
       [--readme README.md] [--json BENCH_pps.json] \
       [--ns-tol 0.05] [--words-tol 1.0] \
       [--scale-json BENCH_scale.json] [--scale-tol 0.05] \
       [--report-json BENCH_report.json] [--e2e-json BENCH_e2e.json]

   Exit 1 on any row that drifted, exit 2 on a malformed table or report.
   The check is content-only — it never runs the benchmarks — so it is
   cheap enough for every CI run. *)

let readme = ref "README.md"
let json = ref "BENCH_pps.json"
let ns_tol = ref 0.05
let words_tol = ref 1.0
let scale_json = ref "BENCH_scale.json"
let scale_tol = ref 0.05
let report_json = ref "BENCH_report.json"
let e2e_json = ref "BENCH_e2e.json"

let spec =
  [
    ("--readme", Arg.Set_string readme, "FILE  the README carrying the §6.1 table");
    ("--json", Arg.Set_string json, "FILE  the committed per-packet report");
    ( "--ns-tol",
      Arg.Set_float ns_tol,
      "F  max fractional ns drift between table and JSON (default 0.05)" );
    ( "--words-tol",
      Arg.Set_float words_tol,
      "W  max absolute words/pkt drift between table and JSON (default 1.0)" );
    ( "--scale-json",
      Arg.Set_string scale_json,
      "FILE  the committed scale-sweep report (default BENCH_scale.json)" );
    ( "--scale-tol",
      Arg.Set_float scale_tol,
      "F  max fractional drift between the scale table and its JSON (default 0.05)" );
    ( "--report-json",
      Arg.Set_string report_json,
      "FILE  the committed cross-scheme fairness report (default BENCH_report.json)" );
    ( "--e2e-json",
      Arg.Set_string e2e_json,
      "FILE  the committed traced end-to-end report (default BENCH_e2e.json)" );
  ]

let usage =
  "readme_check [--readme FILE] [--json FILE] [--ns-tol F] [--words-tol W] [--scale-json FILE] \
   [--scale-tol F] [--report-json FILE] [--e2e-json FILE]"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Same scan-for-quoted-key parsing as compare_bench: our benches write one
   "key": value per line. *)
let find_number ?(from = 0) text key =
  let needle = "\"" ^ key ^ "\":" in
  let rec search i =
    if i + String.length needle > String.length text then None
    else if String.sub text i (String.length needle) = needle then Some i
    else search (i + 1)
  in
  match search from with
  | None -> None
  | Some i ->
      let j = i + String.length needle in
      let k = ref j in
      while
        !k < String.length text
        && (match text.[!k] with '0' .. '9' | '.' | '-' | 'e' | '+' | ' ' -> true | _ -> false)
      do
        incr k
      done;
      float_of_string_opt (String.trim (String.sub text j (!k - j)))

let section_field text name field =
  let needle = "\"" ^ name ^ "\":" in
  let rec search i =
    if i + String.length needle > String.length text then None
    else if String.sub text i (String.length needle) = needle then Some i
    else search (i + 1)
  in
  match search 0 with None -> None | Some i -> find_number ~from:i text field

(* The README row for a path looks like
     | `cached_nonce` | ... | ... | 96.4 ns, 11 words/pkt |
   The committed column is the last nonempty cell; the float before " ns"
   is the latency and the float before " words" the allocation. *)
let split_cells line =
  String.split_on_char '|' line |> List.map String.trim |> List.filter (fun c -> c <> "")

let rec find_sub text needle from =
  if from + String.length needle > String.length text then None
  else if String.sub text from (String.length needle) = needle then Some from
  else find_sub text needle (from + 1)

(* The float that ends just before [unit] in a committed-column cell. *)
let cell_figure cell unit =
  let num_ending_at j =
    (* walk back over the float that ends just before index j *)
    let i = ref j in
    while !i > 0 && (match cell.[!i - 1] with '0' .. '9' | '.' -> true | _ -> false) do
      decr i
    done;
    if !i = j then None else float_of_string_opt (String.sub cell !i (j - !i))
  in
  match find_sub cell unit 0 with None -> None | Some j -> num_ending_at j

(* Scan a committed-column cell for "<float> ns" and an optional
   "<float> words". *)
let parse_cell cell = (cell_figure cell " ns", cell_figure cell " words")

let row_cell readme_text key =
  let marker = "| `" ^ key ^ "` |" in
  let lines = String.split_on_char '\n' readme_text in
  match List.find_opt (fun l -> find_sub l marker 0 <> None) lines with
  | None -> None
  | Some line -> (
      match List.rev (split_cells line) with cell :: _ -> Some cell | [] -> None)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let readme_text = read_file !readme and json_text = read_file !json in
  let failed = ref false and checked = ref 0 in
  let fatal fmt = Printf.ksprintf (fun s -> prerr_endline ("readme_check: " ^ s); exit 2) fmt in
  let check key =
    match row_cell readme_text key with
    | None -> fatal "README has no table row for `%s`" key
    | Some cell ->
        let table_ns, table_words = parse_cell cell in
        let json_ns = section_field json_text key "ns_per_packet" in
        let json_words = section_field json_text key "minor_words_per_packet" in
        (match (table_ns, json_ns) with
        | Some t, Some j ->
            incr checked;
            if Float.abs (t -. j) > (!ns_tol *. j) +. 0.051 (* quantization of one decimal *)
            then begin
              Printf.eprintf "readme_check: `%s` ns drifted: README says %.1f, JSON says %.2f\n"
                key t j;
              failed := true
            end
        | None, _ -> fatal "no ns figure in README row `%s` (cell %S)" key cell
        | _, None -> fatal "no \"%s\".ns_per_packet in %s" key !json);
        match (table_words, json_words) with
        | Some t, Some j ->
            incr checked;
            if Float.abs (t -. j) > !words_tol then begin
              Printf.eprintf
                "readme_check: `%s` words/pkt drifted: README says %g, JSON says %.3f\n" key t j;
              failed := true
            end
        | None, _ -> fatal "no words figure in README row `%s` (cell %S)" key cell
        | _, None -> fatal "no \"%s\".minor_words_per_packet in %s" key !json
  in
  List.iter check [ "cached_nonce"; "validate"; "request"; "legacy"; "cached_nonce_telemetry" ];
  let pps_checked = !checked in
  (* The README's million-sender scale table quotes the "gates" object of
     BENCH_scale.json; [section_field] scoped to "gates" skips the same
     field names inside the per-leg objects that precede it. *)
  let scale_text = read_file !scale_json in
  let check_scale ~key ~unit =
    match row_cell readme_text key with
    | None -> fatal "README has no scale-table row for `%s`" key
    | Some cell -> (
        match (cell_figure cell unit, section_field scale_text "gates" key) with
        | Some t, Some j ->
            incr checked;
            if Float.abs (t -. j) > (!scale_tol *. Float.abs j) +. 0.051 then begin
              Printf.eprintf
                "readme_check: `%s` drifted: README says %g%s, JSON says %g\n" key t unit j;
              failed := true
            end
        | None, _ -> fatal "no \"%s\" figure in README scale row (cell %S)" key cell
        | _, None -> fatal "no gates.%s in %s" key !scale_json)
  in
  check_scale ~key:"independent_events_per_s" ~unit:" ev/s";
  check_scale ~key:"coalesced_events_per_s" ~unit:" ev/s";
  check_scale ~key:"wall_s" ~unit:" s";
  check_scale ~key:"peak_heap_mb" ~unit:" MB";
  let scale_checked = !checked - pps_checked in
  (* The README's five-scheme comparison table quotes the headline
     "<scheme>_fraction/_median_s/_jain" keys of BENCH_report.json, both
     written in lockstep by `tva_sim report`.  The table renders three
     decimals, so only that quantization is tolerated. *)
  let report_text = read_file !report_json in
  let report_section =
    match find_sub readme_text "Five-scheme comparison" 0 with
    | None -> fatal "README has no \"Five-scheme comparison\" section"
    | Some i -> String.sub readme_text i (String.length readme_text - i)
  in
  let check_report scheme =
    let marker = "| `" ^ scheme ^ "` |" in
    let lines = String.split_on_char '\n' report_section in
    let line =
      match List.find_opt (fun l -> find_sub l marker 0 <> None) lines with
      | None -> fatal "README five-scheme table has no row for `%s`" scheme
      | Some l -> l
    in
    let cells =
      match split_cells line with
      | [ _; completed; median; jain ] ->
          [ ("fraction", completed); ("median_s", median); ("jain", jain) ]
      | cs -> fatal "malformed five-scheme row for `%s` (%d cells)" scheme (List.length cs)
    in
    List.iter
      (fun (field, cell) ->
        let key = scheme ^ "_" ^ field in
        if find_sub report_text ("\"" ^ key ^ "\":") 0 = None then
          fatal "no \"%s\" in %s" key !report_json;
        match (float_of_string_opt cell, find_number report_text key) with
        | Some t, Some j ->
            incr checked;
            if Float.abs (t -. j) > 0.00051 then begin
              Printf.eprintf "readme_check: `%s` drifted: README says %g, JSON says %g\n" key t j;
              failed := true
            end
        | None, None when cell = "-" ->
            (* A null median: no transfer completed in that cell, and the
               table shows the same dash the report renderer emits. *)
            incr checked
        | None, Some j ->
            Printf.eprintf "readme_check: `%s`: README cell %S is not a number, JSON says %g\n"
              key cell j;
            failed := true
        | Some t, None ->
            Printf.eprintf "readme_check: `%s`: README says %g but the JSON value is null\n" key t;
            failed := true
        | None, None -> fatal "unreadable README cell %S for `%s`" cell key)
      cells
  in
  List.iter check_report [ "internet"; "siff"; "pushback"; "tva"; "netfence" ];
  let report_checked = !checked - pps_checked - scale_checked in
  (* The README's layer-breakdown table: one row per per-layer metric
     (first cell, backquoted), one column per workload (header cells,
     backquoted).  Each cell is the workload's [layers.<metric>.value]
     in BENCH_e2e.json, rounded to the digits the cell shows. *)
  let module J = Obs.Export in
  let e2e =
    match J.parse (read_file !e2e_json) with Ok j -> j | Error e -> fatal "%s: %s" !e2e_json e
  in
  let member k = function J.Obj kv -> List.assoc_opt k kv | _ -> None in
  let layer_value workload metric =
    let workloads = match member "workloads" e2e with Some (J.List l) -> l | _ -> [] in
    match List.find_opt (fun w -> member "name" w = Some (J.String workload)) workloads with
    | None -> fatal "no %s workload in %s" workload !e2e_json
    | Some w -> (
        match Option.bind (Option.bind (member "layers" w) (member metric)) (member "value") with
        | Some (J.Float f) -> f
        | Some (J.Int i) -> float_of_int i
        | _ -> fatal "no %s layers.%s.value in %s" workload metric !e2e_json)
  in
  let unquote c =
    let n = String.length c in
    if n >= 2 && c.[0] = '`' && c.[n - 1] = '`' then Some (String.sub c 1 (n - 2)) else None
  in
  (* The section's first table: its first run of '|' lines. *)
  let rows =
    let is_row l = String.length l > 0 && l.[0] = '|' in
    let rec skip = function l :: ls when not (is_row l) -> skip ls | ls -> take ls
    and take = function l :: ls when is_row l -> l :: take ls | _ -> [] in
    match find_sub readme_text "End-to-end layer breakdown" 0 with
    | None -> fatal "README has no \"End-to-end layer breakdown\" section"
    | Some i -> skip (String.split_on_char '\n' (String.sub readme_text i (String.length readme_text - i)))
  in
  let workloads, body =
    match rows with
    | header :: _sep :: body -> (List.filter_map unquote (List.tl (split_cells header)), body)
    | _ -> fatal "README layer-breakdown table is missing"
  in
  if workloads = [] then fatal "README layer-breakdown header names no workload";
  (* A cell rounded to d decimals is within half a unit of its last digit. *)
  let quantum cell =
    match String.index_opt cell '.' with
    | None -> 0.5
    | Some i -> 0.5 *. (10. ** -.float_of_int (String.length cell - i - 1))
  in
  let metrics = ref [] in
  List.iter
    (fun line ->
      match split_cells line with
      | first :: cells -> (
          match unquote first with
          | None -> fatal "README layer row %S does not start with a `metric`" line
          | Some metric ->
              metrics := metric :: !metrics;
              if List.length cells <> List.length workloads then
                fatal "README layer row `%s` has %d cells for %d workloads" metric
                  (List.length cells) (List.length workloads);
              List.iter2
                (fun workload cell ->
                  match float_of_string_opt cell with
                  | None -> fatal "unreadable README cell %S for `%s`" cell metric
                  | Some t ->
                      let j = layer_value workload metric in
                      incr checked;
                      if Float.abs (t -. j) > quantum cell +. 1e-9 then begin
                        Printf.eprintf "readme_check: %s `%s` drifted: README says %s, JSON says %g\n"
                          workload metric cell j;
                        failed := true
                      end)
                workloads cells)
      | [] -> ())
    body;
  List.iter
    (fun m ->
      if not (List.mem m !metrics) then fatal "README layer-breakdown table has no `%s` row" m)
    [ "engine.loop_self_ns_per_hop"; "gc.minor_words_per_hop" ];
  if !failed then begin
    prerr_endline
      "readme_check: regenerate in lockstep: dune exec bench/pps_bench.exe (§6.1 table), dune \
       exec bench/scale_bench.exe (scale table), dune exec bin/tva_sim.exe -- report \
       (five-scheme table), or dune exec bench/e2e/e2e_bench.exe -- --traced --out \
       BENCH_e2e.json (layer table), then update the README from the fresh JSON";
    exit 1
  end;
  Printf.printf "readme_check: %d figures in the README §6.1 table match %s, %d in the scale \
                 table match %s, %d in the five-scheme table match %s, %d in the layer table \
                 match %s\n"
    pps_checked !json scale_checked !scale_json report_checked !report_json
    (!checked - pps_checked - scale_checked - report_checked)
    !e2e_json

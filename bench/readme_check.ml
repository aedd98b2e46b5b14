(* Guard against metadata drift between the committed reports and the
   README tables: both are regenerated in lockstep on the same host, so
   the figures quoted in the README's "Committed" columns must match the
   reports within a small tolerance.  Three tables are covered: the §6.1
   per-packet table against the SipHash columns of results/table1.txt
   (`tva_sim table1`), the five-scheme table against BENCH_report.json,
   and the end-to-end layer breakdown against the per-layer values of
   BENCH_e2e.json (a traced e2e_bench report).

     dune exec bench/readme_check.exe -- \
       [--readme README.md] [--table1 results/table1.txt] \
       [--ns-tol 0.05] [--words-tol 1.0] \
       [--report-json BENCH_report.json] [--e2e-json BENCH_e2e.json]

   Exit 1 on any row that drifted, exit 2 on a malformed table or report.
   The check is content-only — it never runs the benchmarks — so it is
   cheap enough for every CI run. *)

let readme = ref "README.md"
let table1 = ref "results/table1.txt"
let ns_tol = ref 0.05
let words_tol = ref 1.0
let report_json = ref "BENCH_report.json"
let e2e_json = ref "BENCH_e2e.json"

let spec =
  [
    ("--readme", Arg.Set_string readme, "FILE  the README carrying the §6.1 table");
    ("--table1", Arg.Set_string table1, "FILE  the committed `tva_sim table1` output");
    ( "--ns-tol",
      Arg.Set_float ns_tol,
      "F  max fractional ns drift between README and table1 (default 0.05)" );
    ( "--words-tol",
      Arg.Set_float words_tol,
      "W  max absolute words/pkt drift between README and table1 (default 1.0)" );
    ( "--report-json",
      Arg.Set_string report_json,
      "FILE  the committed cross-scheme fairness report (default BENCH_report.json)" );
    ( "--e2e-json",
      Arg.Set_string e2e_json,
      "FILE  the committed traced end-to-end report (default BENCH_e2e.json)" );
  ]

let usage =
  "readme_check [--readme FILE] [--table1 FILE] [--ns-tol F] [--words-tol W] [--report-json FILE] \
   [--e2e-json FILE]"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

module J = Obs.Export

(* The README row for a packet type looks like
     | `regular w/ cached entry` | ... | ... | 48.5 ns, 0 words/pkt |
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
  let failed = ref false and checked = ref 0 in
  let fatal fmt = Printf.ksprintf (fun s -> prerr_endline ("readme_check: " ^ s); exit 2) fmt in
  let read_json path =
    match J.parse (read_file path) with Ok j -> j | Error e -> fatal "%s: %s" path e
  in
  let readme_text = read_file !readme and table1_text = read_file !table1 in
  (* A table1 row is the packet type, padded, then its prototype ns,
     SipHash ns and SipHash minor words/packet. *)
  let table1_row name =
    let prefix = name ^ "  " in
    match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' table1_text) with
    | None -> fatal "%s has no row for `%s`" !table1 name
    | Some line -> (
        let rest = String.sub line (String.length name) (String.length line - String.length name) in
        try Scanf.sscanf rest " %f %f %f" (fun _prototype ns words -> (ns, words))
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          fatal "malformed %s row for `%s`: %S" !table1 name line)
  in
  let check name =
    let cell =
      match row_cell readme_text name with
      | Some cell -> cell
      | None -> fatal "README has no table row for `%s`" name
    in
    let compare what readme table ~tol =
      match readme with
      | None -> fatal "no %s figure in README row `%s` (cell %S)" what name cell
      | Some t ->
          incr checked;
          if Float.abs (t -. table) > tol then begin
            Printf.eprintf "readme_check: `%s` %s drifted: README says %g, %s says %g\n" name what
              t !table1 table;
            failed := true
          end
    in
    let readme_ns, readme_words = parse_cell cell and ns, words = table1_row name in
    (* The ns tolerance adds the quantization of one decimal. *)
    compare "ns" readme_ns ns ~tol:((!ns_tol *. ns) +. 0.051);
    compare "words/pkt" readme_words words ~tol:!words_tol
  in
  List.iter check
    [
      "legacy IP forward";
      "request";
      "regular w/ cached entry";
      "regular w/o cached entry";
      "renewal w/ cached entry";
      "renewal w/o cached entry";
    ];
  let table1_checked = !checked in
  (* The README's five-scheme comparison table quotes the headline
     "<scheme>_fraction/_median_s/_jain" keys of BENCH_report.json, both
     written in lockstep by `tva_sim report`.  The table renders three
     decimals, so only that quantization is tolerated. *)
  let report = read_json !report_json in
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
        let value = J.find report [ key ] in
        if value = None then fatal "no \"%s\" in %s" key !report_json;
        match (float_of_string_opt cell, Option.bind value J.number) with
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
  let report_checked = !checked - table1_checked in
  (* The README's layer-breakdown table: one row per per-layer metric
     (first cell, backquoted), one column per workload (header cells,
     backquoted).  Each cell is the workload's [layers.<metric>.value]
     in BENCH_e2e.json, rounded to the digits the cell shows. *)
  let e2e = read_json !e2e_json in
  let layer_value workload metric =
    let workloads = match J.find e2e [ "workloads" ] with Some (J.List l) -> l | _ -> [] in
    match List.find_opt (fun w -> J.find w [ "name" ] = Some (J.String workload)) workloads with
    | None -> fatal "no %s workload in %s" workload !e2e_json
    | Some w -> (
        match Option.bind (J.find w [ "layers"; metric; "value" ]) J.number with
        | Some v -> v
        | None -> fatal "no %s layers.%s.value in %s" workload metric !e2e_json)
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
      "readme_check: regenerate in lockstep: dune exec bin/tva_sim.exe -- table1 > \
       results/table1.txt (§6.1 table), dune exec bin/tva_sim.exe -- report (five-scheme table), \
       or dune exec bench/e2e/e2e_bench.exe -- --traced --out BENCH_e2e.json (layer table), then \
       update the README from the fresh report";
    exit 1
  end;
  Printf.printf "readme_check: %d figures in the README §6.1 table match %s, %d in the \
                 five-scheme table match %s, %d in the layer table match %s\n"
    table1_checked !table1 report_checked !report_json (!checked - table1_checked - report_checked) !e2e_json

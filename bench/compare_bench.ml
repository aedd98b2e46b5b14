(* The obs-cost gate over one end-to-end report:

     dune exec bench/compare_bench.exe -- --e2e-report e2e.json \
       [--summary $GITHUB_STEP_SUMMARY]

   where e2e.json is [bench/e2e/e2e_bench.exe --workload fig8_legacy,fig8_stats
   --out e2e.json].  fig8_stats is the fig8_legacy grid with counters and
   the net-event bridge on, so the ratio of their median wall_s is what
   [--stats] costs a user, on one host in one run.  It fails (exit 1) when
   that ratio exceeds [obs_budget].

   The report is a markdown table on stdout; [--summary FILE] appends the
   same markdown there (pass $GITHUB_STEP_SUMMARY in CI). *)

let summary = ref ""
let e2e_report = ref ""

let spec =
  [
    ("--summary", Arg.Set_string summary, "FILE  also append the markdown report here");
    ("--e2e-report", Arg.Set_string e2e_report, "FILE  e2e_bench report to gate the obs cost on");
  ]

let usage = "compare_bench --e2e-report FILE [--summary FILE]"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

module J = Obs.Export

let bad fmt = Printf.ksprintf (fun m -> prerr_endline ("compare_bench: " ^ m); exit 2) fmt

let read_json path =
  match J.parse (read_file path) with Ok j -> j | Error e -> bad "%s: %s" path e

(* The obs-cost gate over one e2e_bench report: both workloads ran on the
   same host in the same invocation, so their ratio cancels machine speed. *)
let obs_budget = 1.25

(* The report's markdown, and whether the ratio is over budget. *)
let obs_cost () =
  let report = read_json !e2e_report in
  let workloads = match J.find report [ "workloads" ] with Some (J.List l) -> l | _ -> [] in
  let wall name =
    let w =
      match List.find_opt (fun w -> J.find w [ "name" ] = Some (J.String name)) workloads with
      | Some w -> w
      | None -> bad "no %s workload in %s" name !e2e_report
    in
    let stat k =
      match Option.bind (J.find w [ "e2e"; "wall_s"; k ]) J.number with
      | Some v -> v
      | None -> bad "no %s wall_s %s in %s" name k !e2e_report
    in
    (stat "median", stat "q1", stat "q3")
  in
  let ((legacy, _, _) as l) = wall "fig8_legacy" and ((stats, _, _) as s) = wall "fig8_stats" in
  let ratio = stats /. legacy in
  let over = ratio > obs_budget in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "### Observability cost end to end\n\n";
  Buffer.add_string buf "| workload | median wall_s | q1 | q3 |\n|---|---|---|---|\n";
  List.iter
    (fun (name, (m, q1, q3)) -> Printf.bprintf buf "| %s | %.3f | %.3f | %.3f |\n" name m q1 q3)
    [ ("fig8_legacy", l); ("fig8_stats", s) ];
  Printf.bprintf buf "\nGate: fig8_stats / fig8_legacy median wall_s %.2fx, budget %.2fx: %s\n"
    ratio obs_budget
    (if over then "FAIL" else "ok");
  Printf.bprintf buf "\nResult: **%s**\n" (if over then "FAIL" else "pass");
  (Buffer.contents buf, over)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !e2e_report = "" then bad "--e2e-report is required";
  let markdown, over = obs_cost () in
  print_string markdown;
  if !summary <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !summary in
    output_string oc markdown;
    close_out oc
  end;
  if over then exit 1

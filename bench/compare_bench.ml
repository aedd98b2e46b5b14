(* Compare freshly measured benchmark JSONs against the committed
   baselines and fail on a real throughput regression.

     dune exec bench/compare_bench.exe -- \
       --old-pps BENCH_pps.json --new-pps /tmp/fresh_pps.json \
       [--threshold 0.25] [--relative-to-legacy] [--summary $GITHUB_STEP_SUMMARY]

   The gate: each router path's pps in the new report must be within
   [threshold] (default 25%) of the committed value, else exit 1.  With
   [--relative-to-legacy], each path's pps is first divided by the same
   report's legacy-path pps — the legacy path does no TVA work, so the
   ratio cancels raw machine speed and isolates per-path cost, which keeps
   the gate meaningful on CI runners slower than the machine that produced
   the committed numbers.

   The obs-cost gate reads an end-to-end report instead:

     dune exec bench/compare_bench.exe -- --e2e-report e2e.json

   where e2e.json is [bench/e2e/e2e_bench.exe --workload fig8_legacy,fig8_stats
   --out e2e.json].  fig8_stats is the fig8_legacy grid with counters and
   the net-event bridge on, so the ratio of their median wall_s is what
   [--stats] costs a user, on one host in one run.  It fails when that
   ratio exceeds [obs_budget].  Either mode may run alone or both together.

   The report is a markdown table on stdout; [--summary FILE] appends the
   same markdown there (pass $GITHUB_STEP_SUMMARY in CI). *)

let old_pps = ref "BENCH_pps.json"
let new_pps = ref ""
let threshold = ref 0.25
let relative = ref false
let summary = ref ""
let e2e_report = ref ""

let spec =
  [
    ("--old-pps", Arg.Set_string old_pps, "FILE  committed per-packet report (default BENCH_pps.json)");
    ( "--new-pps",
      Arg.Set_string new_pps,
      "FILE  freshly measured per-packet report (required without --e2e-report)" );
    ("--threshold", Arg.Set_float threshold, "F  max tolerated pps regression fraction (default 0.25)");
    ( "--relative-to-legacy",
      Arg.Set relative,
      "  compare each path's pps normalized by the same report's legacy pps" );
    ("--summary", Arg.Set_string summary, "FILE  also append the markdown report here");
    ("--e2e-report", Arg.Set_string e2e_report, "FILE  e2e_bench report to gate the obs cost on");
  ]

let usage = "compare_bench (--new-pps FILE | --e2e-report FILE) [options]"

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

let paths = [ "cached_nonce"; "validate"; "request"; "legacy" ]

(* The committed baseline vs a fresh per-packet report. *)
let compare_baselines buf failed =
  let old_json = read_json !old_pps and new_json = read_json !new_pps in
  let get json name =
    match Option.bind (J.find json [ name; "pps" ]) J.number with
    | Some v -> v
    | None -> bad "no \"%s\" pps in report" name
  in
  let normalize json v = if !relative then v /. get json "legacy" else v in
  Buffer.add_string buf "### Router per-packet throughput vs committed baseline\n\n";
  if !relative then
    Buffer.add_string buf "_pps normalized by each report's legacy-path pps._\n\n";
  Buffer.add_string buf "| path | committed pps | fresh pps | change | gate |\n";
  Buffer.add_string buf "|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      let o = get old_json name and n = get new_json name in
      let delta = (normalize new_json n /. normalize old_json o) -. 1. in
      (* Legacy is the normalization denominator; gating it against itself
         would be vacuous under --relative-to-legacy, and raw machine speed
         otherwise, so it is informational. *)
      let gated = name <> "legacy" in
      let regressed = gated && delta < -. !threshold in
      if regressed then failed := true;
      Buffer.add_string buf
        (Printf.sprintf "| %s | %.0f | %.0f | %+.1f%% | %s |\n" name o n (100. *. delta)
           (if not gated then "—" else if regressed then "FAIL" else "ok")))
    paths;
  Buffer.add_string buf
    (Printf.sprintf
       "\nGate: fail if any router path regresses more than %.0f%%.\n"
       (100. *. !threshold))

(* The obs-cost gate over one e2e_bench report: both workloads ran on the
   same host in the same invocation, so their ratio cancels machine speed. *)
let obs_budget = 1.25

let gate_obs_cost buf failed =
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
  if over then failed := true;
  Buffer.add_string buf "\n### Observability cost end to end\n\n";
  Buffer.add_string buf "| workload | median wall_s | q1 | q3 |\n|---|---|---|---|\n";
  List.iter
    (fun (name, (m, q1, q3)) ->
      Buffer.add_string buf (Printf.sprintf "| %s | %.3f | %.3f | %.3f |\n" name m q1 q3))
    [ ("fig8_legacy", l); ("fig8_stats", s) ];
  Buffer.add_string buf
    (Printf.sprintf "\nGate: fig8_stats / fig8_legacy median wall_s %.2fx, budget %.2fx: %s\n" ratio
       obs_budget
       (if over then "FAIL" else "ok"))

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !new_pps = "" && !e2e_report = "" then begin
    prerr_endline "compare_bench: --new-pps or --e2e-report is required";
    exit 2
  end;
  let buf = Buffer.create 1024 and failed = ref false in
  if !new_pps <> "" then compare_baselines buf failed;
  if !e2e_report <> "" then gate_obs_cost buf failed;
  Buffer.add_string buf (Printf.sprintf "\nResult: **%s**\n" (if !failed then "FAIL" else "pass"));
  print_string (Buffer.contents buf);
  if !summary <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !summary in
    output_string oc (Buffer.contents buf);
    close_out oc
  end;
  if !failed then exit 1

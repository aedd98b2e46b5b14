(* Compare freshly measured benchmark JSONs against the committed
   baselines and fail on a real throughput regression.

     dune exec bench/compare_bench.exe -- \
       --old-pps BENCH_pps.json --new-pps /tmp/fresh_pps.json \
       [--old-sweep BENCH_sweep.json --new-sweep /tmp/fresh_sweep.json] \
       [--old-scale BENCH_scale.json --new-scale /tmp/fresh_scale.json] \
       [--threshold 0.25] [--relative-to-legacy] [--summary $GITHUB_STEP_SUMMARY]

   The gate: each router path's pps in the new report must be within
   [threshold] (default 25%) of the committed value, else exit 1.  With
   [--relative-to-legacy], each path's pps is first divided by the same
   report's legacy-path pps — the legacy path does no TVA work, so the
   ratio cancels raw machine speed and isolates per-path cost, which keeps
   the gate meaningful on CI runners slower than the machine that produced
   the committed numbers.  The sweep comparison is reported but never
   gates: its wall-clock depends on domain scheduling noise.

   The scale comparison gates the independent leg's events/s always
   normalized by the same report's coalesced-leg events/s (the coalesced
   leg, with its small pending set, is the machine-speed reference there,
   playing the role the legacy path plays for pps), and
   peak live-heap — machine-independent at a fixed sweep size — gated on
   growth.  Both only gate when the two reports ran the same largest
   sweep point; a smoke report against a full baseline is informational.

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
let old_sweep = ref ""
let new_sweep = ref ""
let old_scale = ref ""
let new_scale = ref ""
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
    ("--old-sweep", Arg.Set_string old_sweep, "FILE  committed sweep report (optional)");
    ("--new-sweep", Arg.Set_string new_sweep, "FILE  freshly measured sweep report (optional)");
    ("--old-scale", Arg.Set_string old_scale, "FILE  committed scale report (optional)");
    ("--new-scale", Arg.Set_string new_scale, "FILE  freshly measured scale report (optional)");
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

(* The reports are written by our own benches with one "key": value per
   line, so a scan for the quoted key suffices — no JSON library in the
   dependency set. *)
let find_number ?(from = 0) text key =
  let needle = "\"" ^ key ^ "\":" in
  match
    let rec search i =
      if i + String.length needle > String.length text then None
      else if String.sub text i (String.length needle) = needle then Some i
      else search (i + 1)
    in
    search from
  with
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

let section_start text name =
  let needle = "\"" ^ name ^ "\":" in
  let rec search i =
    if i + String.length needle > String.length text then None
    else if String.sub text i (String.length needle) = needle then Some i
    else search (i + 1)
  in
  search 0

let section_pps text name =
  match section_start text name with None -> None | Some i -> find_number ~from:i text "pps"

(* Scale-report gates live in the "gates" object; several of its keys
   ("peak_heap_mb", "wall_s") also appear per leg, so scan from there. *)
let scale_gate text key =
  match section_start text "gates" with None -> None | Some i -> find_number ~from:i text key

let paths = [ "cached_nonce"; "validate"; "request"; "legacy" ]

(* The committed baselines vs a fresh per-packet (and optionally sweep and
   scale) report. *)
let compare_baselines buf failed =
  let old_text = read_file !old_pps and new_text = read_file !new_pps in
  let get text name =
    match section_pps text name with
    | Some v -> v
    | None ->
        Printf.eprintf "compare_bench: no \"%s\" pps in report\n" name;
        exit 2
  in
  let normalize text v = if !relative then v /. get text "legacy" else v in
  Buffer.add_string buf "### Router per-packet throughput vs committed baseline\n\n";
  if !relative then
    Buffer.add_string buf "_pps normalized by each report's legacy-path pps._\n\n";
  Buffer.add_string buf "| path | committed pps | fresh pps | change | gate |\n";
  Buffer.add_string buf "|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      let o = get old_text name and n = get new_text name in
      let delta = (normalize new_text n /. normalize old_text o) -. 1. in
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
  (* The obs-enabled cached-nonce section is newer than some committed
     baselines; show it only when both reports carry it.  pps_bench itself
     gates the obs overhead, so here it is informational. *)
  (match (section_pps old_text "cached_nonce_obs", section_pps new_text "cached_nonce_obs") with
  | Some o, Some n ->
      let delta = (normalize new_text n /. normalize old_text o) -. 1. in
      Buffer.add_string buf
        (Printf.sprintf "| cached_nonce_obs | %.0f | %.0f | %+.1f%% | — |\n" o n (100. *. delta))
  | _ -> ());
  (* Likewise the telemetry-tick duel row: pps_bench gates its overhead and
     allocation against the obs-only path, so the cross-report delta here
     is informational. *)
  (match
     (section_pps old_text "cached_nonce_telemetry", section_pps new_text "cached_nonce_telemetry")
   with
  | Some o, Some n ->
      let delta = (normalize new_text n /. normalize old_text o) -. 1. in
      Buffer.add_string buf
        (Printf.sprintf "| cached_nonce_telemetry | %.0f | %.0f | %+.1f%% | — |\n" o n
           (100. *. delta))
  | _ -> ());
  (match (find_number old_text "obs_overhead_pct", find_number new_text "obs_overhead_pct") with
  | Some o, Some n ->
      Buffer.add_string buf
        (Printf.sprintf "\n_obs counter overhead on the cached path: %.2f%% committed, %.2f%% \
                         fresh (gated inside pps_bench)._\n"
           o n)
  | _ -> ());
  (match
     (find_number old_text "telemetry_overhead_pct", find_number new_text "telemetry_overhead_pct")
   with
  | Some o, Some n ->
      Buffer.add_string buf
        (Printf.sprintf "\n_telemetry tick overhead on the obs cached path: %.2f%% committed, \
                         %.2f%% fresh (gated inside pps_bench)._\n"
           o n)
  | _ -> ());
  (match (!old_sweep, !new_sweep) with
  | "", _ | _, "" -> ()
  | os, ns ->
      let ot = read_file os and nt = read_file ns in
      Buffer.add_string buf "\n### Sweep engine (informational)\n\n";
      Buffer.add_string buf "| metric | committed | fresh | change |\n|---|---|---|---|\n";
      List.iter
        (fun key ->
          match (find_number ot key, find_number nt key) with
          | Some o, Some n ->
              Buffer.add_string buf
                (Printf.sprintf "| %s | %.0f | %.0f | %+.1f%% |\n" key o n
                   (100. *. ((n /. o) -. 1.)))
          | _ -> ())
        [ "events_per_sec_j1"; "events_per_sec_jN" ]);
  (match (!old_scale, !new_scale) with
  | "", _ | _, "" -> ()
  | os, ns ->
      let ot = read_file os and nt = read_file ns in
      let comparable =
        match (find_number ot "largest_senders", find_number nt "largest_senders") with
        | Some a, Some b -> a = b
        | _ -> false
      in
      Buffer.add_string buf "\n### Million-sender scale sweep vs committed baseline\n\n";
      if not comparable then
        Buffer.add_string buf
          "_Sweep sizes differ between the reports, so nothing below gates._\n\n"
      else
        Buffer.add_string buf
          "_Gated events/s are normalized by each report's coalesced-leg events/s (cancels \
           machine speed)._\n\n";
      Buffer.add_string buf "| metric | committed | fresh | change | gate |\n|---|---|---|---|---|\n";
      (* higher_is_better flips the regression direction for peak heap.
         normalize divides by the same report's coalesced-leg events/s,
         the scale analogue of the legacy path. *)
      let row ?(normalize = false) ?(gated = true) ?(higher_is_better = true) key =
        match (scale_gate ot key, scale_gate nt key) with
        | Some o, Some n ->
            let norm text v =
              match (normalize, scale_gate text "coalesced_events_per_s") with
              | true, Some h when h > 0. -> v /. h
              | _ -> v
            in
            let delta = (norm nt n /. norm ot o) -. 1. in
            let gated = gated && comparable in
            let regressed =
              gated && if higher_is_better then delta < -. !threshold else delta > !threshold
            in
            if regressed then failed := true;
            Buffer.add_string buf
              (Printf.sprintf "| %s | %.6g | %.6g | %+.1f%% | %s |\n" key o n (100. *. delta)
                 (if not gated then "—" else if regressed then "FAIL" else "ok"))
        | _ -> ()
      in
      (* The coalesced leg is the denominator, and its raw events/s tracks
         machine speed, so it stays informational. *)
      row ~gated:false "coalesced_events_per_s";
      row ~normalize:true "independent_events_per_s";
      row ~higher_is_better:false "peak_heap_mb");
  Buffer.add_string buf
    (Printf.sprintf
       "\nGate: fail if any router path or gated scale metric regresses more than %.0f%%.\n"
       (100. *. !threshold))

(* The obs-cost gate over one e2e_bench report: both workloads ran on the
   same host in the same invocation, so their ratio cancels machine speed. *)
let obs_budget = 1.25

let gate_obs_cost buf failed =
  let module J = Obs.Export in
  let member k = function J.Obj kv -> List.assoc_opt k kv | _ -> None in
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline ("compare_bench: " ^ m); exit 2) fmt in
  let report =
    match J.parse (read_file !e2e_report) with Ok j -> j | Error e -> bad "%s: %s" !e2e_report e
  in
  let workloads = match member "workloads" report with Some (J.List l) -> l | _ -> [] in
  let wall name =
    let w =
      match List.find_opt (fun w -> member "name" w = Some (J.String name)) workloads with
      | Some w -> w
      | None -> bad "no %s workload in %s" name !e2e_report
    in
    let stat k =
      match Option.bind (Option.bind (member "e2e" w) (member "wall_s")) (member k) with
      | Some (J.Float f) -> f
      | Some (J.Int i) -> float_of_int i
      | _ -> bad "no %s wall_s %s in %s" name k !e2e_report
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

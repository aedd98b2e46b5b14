(* End-to-end simulator benchmark.

   One command runs the four workloads of [Workloads] (fig8_legacy,
   fig8_stats, request_flood, scale_100k), each in a fresh child process,
   one process at a time, and prints every end-to-end metric by name and
   unit with its median and quartiles over the timed repeats.  Every
   simulated outcome row is checked against the committed reference
   ([expected_seed<S>.tsv], or [expected_smoke.tsv] under [--smoke]) when
   one exists for the seed, against the first repeat otherwise; fig8_stats
   rows must equal fig8_legacy rows, traced rows untraced ones, and every
   execution of a cell must fire as many events as the first.  A
   differing row counts toward [fail_frac] and the run exits 1.

   With [--traced] (or [--trace 1]) each workload also makes one traced
   repeat in its own child process, which splits loop time into per-layer
   self times from spans recorded around each layer's entry points (see
   [Tracer]); end-to-end metrics always come from the untraced repeats.

     dune exec bench/e2e/e2e_bench.exe -- [--workload N[,N..]] [--reps R | --seconds S]
       [--seed S] [--traced | --trace 0|1] [--out F] [--outcomes-out F] [--smoke]
     dune exec bench/e2e/e2e_bench.exe -- compare A.json B.json

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]: untraced, each
   end-to-end metric's median over the run; traced, the per-layer
   metrics.  Names are prefixed by the workload when more than one
   ran. *)

module J = Obs.Export

(* --- Metrics and statistics --------------------------------------------- *)

type better = Lower | Higher

type e2e = {
  m_name : string;
  m_unit : string;
  m_better : better;
  m_bound : float;
  m_floor : float;  (** absolute slack, in [m_unit], the bound never falls below *)
}

(* Bounds: the share of the baseline median a metric may worsen by before
   [compare] calls it worse.  Host noise wider than a bound shows as
   "unresolved" through the spread rule, not as a wider bound.  Set-up is
   a few milliseconds per grid, so it also gets 20 ms of absolute slack.

   The timings are in reference seconds: each sample's host time is
   scaled by [Calib.reference_s] over the host-speed probes run around it
   (see [scale]).  On a shared host other tenants slow the whole machine
   for minutes at a time; the probe slows with it. *)
let e2e_metrics =
  [
    { m_name = "wall_s"; m_unit = "s"; m_better = Lower; m_bound = 0.10; m_floor = 0. };
    { m_name = "setup_s"; m_unit = "s"; m_better = Lower; m_bound = 0.10; m_floor = 0.020 };
    { m_name = "hops_per_s"; m_unit = "hops/s"; m_better = Higher; m_bound = 0.10; m_floor = 0. };
    { m_name = "peak_heap_mb"; m_unit = "MB"; m_better = Lower; m_bound = 0.10; m_floor = 0. };
  ]

(* The bound as a share of [median]. *)
let bound m ~median = Float.max m.m_bound (m.m_floor /. abs_float median)

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)]; the second is the median. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (4 * j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* --- JSON access -------------------------------------------------------- *)

let member k = function J.Obj kv -> List.assoc_opt k kv | _ -> None

let num = function Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> nan

let str = function Some (J.String s) -> s | _ -> ""

let items = function Some (J.List l) -> l | _ -> []

let get j k = num (member k j)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Command line ------------------------------------------------------- *)

let workloads = ref Workloads.names
let reps = ref 0
let seconds = ref 0.
let seed = ref 1
let traced = ref false
let out_path = ref ""
let outcomes_out = ref ""
let smoke = ref false
let ref_dir = ref "bench/e2e"
let child = ref ""

let spec =
  [
    ( "--workload",
      Arg.String (fun s -> workloads := String.split_on_char ',' s),
      "N[,N..]  workloads to run (default all four)" );
    ("--reps", Arg.Set_int reps, "R  timed repeats per workload (default 5)");
    ( "--seconds",
      Arg.Set_float seconds,
      "S  instead of --reps: the run's time budget, shared among the workloads; each repeats while \
       another repeat fits (at least once)" );
    ("--seed", Arg.Set_int seed, "S  workload seed (default 1)");
    ("--traced", Arg.Set traced, "  also make one traced repeat per workload");
    ( "--trace",
      Arg.Int (fun t -> traced := t <> 0),
      "0|1  --trace 1 is --traced; the last line then carries the per-layer metrics" );
    ( "--out",
      Arg.Set_string out_path,
      "F  write the full report as JSON, and each traced repeat's raw spans beside it" );
    ("--outcomes-out", Arg.Set_string outcomes_out, "F  write the outcome rows as TSV");
    ("--smoke", Arg.Set smoke, "  shrunken workloads checked against expected_smoke.tsv");
    ("--ref-dir", Arg.Set_string ref_dir, "D  where the expected_*.tsv files live (default bench/e2e)");
    ("--child", Arg.Set_string child, "timed|traced  (internal) run one workload in this process");
  ]

let usage =
  "e2e_bench [--workload N] [--reps R | --seconds S] [--seed S] [--traced] [--out F]\n\
   e2e_bench compare A.json B.json"

(* --- Child processes ---------------------------------------------------- *)

let error_row (w : Workloads.t) (c : Workloads.cell) msg =
  Printf.sprintf "%s\t%s\t%d\tERROR %s" w.name c.c_scheme c.c_count msg

type rep = {
  results : Workloads.cell_result list;
  rows : string list;
  events : int list;  (** per cell, -1 for a cell that raised *)
}

(* Every cell starts from a collected heap, outside its timed span: it
   pays for its own garbage, not its predecessor's, and its heap peak does
   not depend on where a major cycle stood when it began. *)
let run_rep ?tracer w cells =
  let outcomes =
    List.map
      (fun (c : Workloads.cell) ->
        Option.iter Tracer.reset_stack tracer;
        Gc.full_major ();
        match c.c_run ?tracer () with
        | r -> (Some r, r.Workloads.row, r.Workloads.events)
        | exception e -> (None, error_row w c (Printexc.to_string e), -1))
      cells
  in
  {
    results = List.filter_map (fun (r, _, _) -> r) outcomes;
    rows = List.map (fun (_, row, _) -> row) outcomes;
    events = List.map (fun (_, _, e) -> e) outcomes;
  }

let sum f rs = List.fold_left (fun acc r -> acc +. f r) 0. rs
let isum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs

(* A repeat's outcome rows and per-cell event counts, for the gate. *)
let outcome_json rep =
  [
    ("rows", J.List (List.map (fun r -> J.String r) rep.rows));
    ("cell_events", J.List (List.map (fun e -> J.Int e) rep.events));
  ]

(* Set-up is a few milliseconds per grid, too little to time once: it is
   timed on its own in passes over every cell with the simulated-time cap
   at 0, which sets up exactly as a full cell does.  [setup_passes] of them
   follow every timed repeat, so the set-up samples span the run as the
   repeats do. *)
let setup_passes = 3

(* Untimed warm-up of the first cell and a host-speed probe, then the
   timed repeats.  Each repeat is followed by its set-up passes and
   another probe; the mean of the probes before and after it scales its
   timings.  The peak heap is read after the first repeat: since every
   cell starts from a collected heap, it is the largest cell's own peak,
   the same at every run of a seed.  With [--seconds] the budget counts
   from the start of this process, and another repeat starts only while
   the longest one so far still fits. *)
let child_timed w cells =
  let t0 = Workloads.wall () in
  ignore (run_rep w [ List.hd cells ]);
  let last_probe = ref (Calib.probe ()) in
  let peak = ref 0 in
  let setup_pass () =
    J.Float (sum (fun (c : Workloads.cell) -> (c.c_run ~max_time:0. ()).Workloads.setup_s) cells)
  in
  let one () =
    let g0 = Gc.quick_stat () in
    let rep = run_rep w cells in
    let g1 = Gc.quick_stat () in
    if !peak = 0 then peak := g1.Gc.top_heap_words;
    let setups = List.init setup_passes (fun _ -> setup_pass ()) in
    let before = !last_probe in
    last_probe := Calib.probe ();
    let rs = rep.results in
    J.Obj
      ([
         ("wall", J.Float (sum (fun r -> r.Workloads.wall_s) rs));
         ("loop", J.Float (sum (fun r -> r.Workloads.loop_s) rs));
         ("hops", J.Int (isum (fun r -> r.Workloads.hops) rs));
         ("setups", J.List setups);
         ("probe", J.Float ((before +. !last_probe) /. 2.));
         ("minor_words", J.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
         ("promoted_words", J.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words));
       ]
      @ outcome_json rep)
  in
  let samples =
    if !seconds > 0. then begin
      let longest = ref 0. and acc = ref [] in
      let continue = ref true in
      while !continue do
        let t = Workloads.wall () in
        acc := one () :: !acc;
        let now = Workloads.wall () in
        longest := Float.max !longest (now -. t);
        continue := now -. t0 +. !longest <= !seconds
      done;
      List.rev !acc
    end
    else List.init (max 1 !reps) (fun _ -> one ())
  in
  J.Obj [ ("reps", J.List samples); ("peak_heap_mb", J.Float (float_of_int !peak *. 8. /. 1e6)) ]

let hold_events () = if !smoke then 20_000 else 1_000_000

let child_traced (w : Workloads.t) cells =
  ignore (run_rep w [ List.hd cells ]);
  let tr = Tracer.create () in
  let rep = run_rep ~tracer:tr w cells in
  let rs = rep.results in
  let hops = isum (fun r -> r.Workloads.hops) rs and events = isum (fun r -> r.Workloads.events) rs in
  let sim_s = sum (fun r -> r.Workloads.sim_end) rs in
  let pending_mean = tr.Tracer.pending_sum /. float_of_int (max 1 tr.Tracer.events) in
  let sched = match rs with r :: _ -> r.Workloads.sched | [] -> Sim.Heap in
  if !out_path <> "" then
    Tracer.write_jsonl tr
      (Filename.concat (Filename.dirname !out_path) (Printf.sprintf "spans_%s.jsonl" w.name));
  let hold s =
    Hold.ns_per_event ~sched:s
      ~pending:(int_of_float (Float.round pending_mean))
      ~mean_delay:(pending_mean *. sim_s /. float_of_int (max 1 events))
      ~events:(hold_events ())
  in
  J.Obj
    ([
      ("sched", J.String (Sim.sched_to_string sched));
      ("wall", J.Float (sum (fun r -> r.Workloads.wall_s) rs));
      ("loop", J.Float (sum (fun r -> r.Workloads.loop_s) rs));
      ("hops", J.Int hops);
      ("events", J.Int events);
      ("drops", J.Int (isum (fun r -> r.Workloads.drops) rs));
      ("enqueued", J.Int (isum (fun r -> r.Workloads.enqueued) rs));
      ("hwm", J.Int (List.fold_left (fun acc r -> max acc r.Workloads.hwm) 0 rs));
      ("pending_mean", J.Float pending_mean);
      ("event_ns", J.Float tr.Tracer.event_ns);
      ( "spans",
        J.List
          (List.init Tracer.name_count (fun i ->
               J.Obj
                 [
                   ("name", J.String (Tracer.name i));
                   ("count", J.Int tr.Tracer.count.(i));
                   ("total_ns", J.Float tr.Tracer.total.(i));
                   ("self_ns", J.Float tr.Tracer.self.(i));
                 ])) );
      ("hold_heap_ns", J.Float (hold Sim.Heap));
      ("hold_wheel_ns", J.Float (hold Sim.Wheel));
    ]
    @ outcome_json rep)

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let last = ref None in
  (try
     while true do
       last := Some (input_line ic)
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !last) with
  | Unix.WEXITED 0, Some line -> (
      match J.parse line with Ok j -> Some j | Error _ -> None)
  | _ -> None

let child_args ~name mode extra =
  [ "--child"; mode; "--workload"; name; "--seed"; string_of_int !seed ]
  @ (if !smoke then [ "--smoke" ] else [])
  @ (if mode = "traced" && !out_path <> "" then [ "--out"; !out_path ] else [])
  @ extra

(* [--seconds] is shared out among the workloads; with tracing, half of a
   workload's share goes to its timed child, and the traced child, one
   repeat long, runs in the other half. *)
let timing_args ~workloads =
  if !seconds > 0. then
    let share = !seconds /. float_of_int workloads in
    [ "--seconds"; Printf.sprintf "%g" (if !traced then share /. 2. else share) ]
  else [ "--reps"; string_of_int (if !reps > 0 then !reps else 5) ]

(* --- Outcomes ----------------------------------------------------------- *)

(* Reference rows by workload, in cell order. *)
let load_reference () =
  let file =
    if !smoke then (if !seed = 1 then Some "expected_smoke.tsv" else None)
    else Some (Printf.sprintf "expected_seed%d.tsv" !seed)
  in
  match file with
  | None -> None
  | Some f -> (
      let path = Filename.concat !ref_dir f in
      match read_file path with
      | exception Sys_error _ -> None
      | text ->
          let tbl = Hashtbl.create 4 in
          String.split_on_char '\n' text
          |> List.iter (fun line ->
                 if line <> "" && line <> Workloads.row_header then
                   match String.index_opt line '\t' with
                   | Some i ->
                       let w = String.sub line 0 i in
                       let prev = Option.value ~default:[] (Hashtbl.find_opt tbl w) in
                       Hashtbl.replace tbl w (prev @ [ line ])
                   | None -> ());
          Some (path, tbl))

let strip_workload row =
  match String.index_opt row '\t' with
  | Some i -> String.sub row i (String.length row - i)
  | None -> row

(* A row is sane when it is not an error, its completion fraction lies in
   [0, 1] and packets moved. *)
let sane row =
  match String.split_on_char '\t' row with
  | [ _; _; _; frac; _; _; _; hops; _ ] -> (
      match (float_of_string_opt frac, int_of_string_opt hops) with
      | Some f, Some h -> f >= 0. && f <= 1. && h > 0
      | _ -> false)
  | _ -> false

(* --- One workload's measurements ---------------------------------------- *)

type result = {
  w : Workloads.t;
  n_cells : int;
  timed : J.t option;
  traced : J.t option;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let timed_reps r = match r.timed with Some t -> items (member "reps" t) | None -> []

let rows_of j = List.map (fun x -> str (Some x)) (items (member "rows" j))

let events_of j = List.map (fun x -> int_of_float (num (Some x))) (items (member "cell_events" j))

let first_rows r = match timed_reps r with s :: _ -> Some (rows_of s) | [] -> None

let note r fmt = Printf.ksprintf (fun s -> r.notes <- r.notes @ [ s ]) fmt

(* Count every cell execution against its expected row.  Event counts are
   not in the committed rows (a change may cut events and keep results),
   but within one run they repeat exactly: every execution of a cell,
   traced or not, must fire as many events as its first timed repeat.  A
   traced router that drifted from [lib/workload/scheme.ml]'s would show
   here even where the rows still agree. *)
let check_outcomes r ~reference ~legacy_rows =
  let expected =
    match reference with
    | Some (_, tbl) -> (
        match Hashtbl.find_opt tbl r.w.Workloads.name with
        | Some rows -> Some rows
        | None ->
            note r "no reference rows for %s" r.w.Workloads.name;
            first_rows r)
    | None -> first_rows r
  in
  let executions = timed_reps r @ Option.to_list r.traced in
  let expected_events = match timed_reps r with s :: _ -> events_of s | [] -> [] in
  let missing_children =
    (if r.timed = None then 1 else 0) + if !traced && r.traced = None then 1 else 0
  in
  if missing_children > 0 then begin
    note r "%d child process(es) failed" missing_children;
    r.attempted <- r.attempted + (missing_children * r.n_cells);
    r.failed <- r.failed + (missing_children * r.n_cells)
  end;
  let expected = Option.value ~default:[] expected in
  List.iter
    (fun ex ->
      let rows = rows_of ex and events = events_of ex in
      List.iteri
        (fun i row ->
          r.attempted <- r.attempted + 1;
          let want = List.nth_opt expected i in
          let legacy_ok =
            match legacy_rows with
            | Some lr -> (
                match List.nth_opt lr i with
                | Some l -> strip_workload l = strip_workload row
                | None -> false)
            | None -> true
          in
          let ev = List.nth_opt events i and want_ev = List.nth_opt expected_events i in
          if want <> Some row || (not (sane row)) || not legacy_ok then begin
            r.failed <- r.failed + 1;
            note r "row differs: %s (expected %s)" row (Option.value ~default:"-" want)
          end
          else if ev <> want_ev then begin
            r.failed <- r.failed + 1;
            note r "event count differs: %s fired %d events (first repeat %d)" row
              (Option.value ~default:(-1) ev) (Option.value ~default:(-1) want_ev)
          end)
        rows;
      let extra = List.length expected - List.length rows in
      if extra > 0 then begin
        r.attempted <- r.attempted + extra;
        r.failed <- r.failed + extra
      end)
    executions

(* --- Metrics ------------------------------------------------------------ *)

(* A repeat's host seconds in reference seconds: scaled by how much
   slower than its reference time the probes around it ran. *)
let scale s secs = secs *. Calib.reference_s /. get s "probe"

let e2e_samples r name =
  let reps = timed_reps r in
  match name with
  | "wall_s" -> List.map (fun s -> scale s (get s "wall")) reps
  | "setup_s" ->
      List.concat_map (fun s -> List.map (fun x -> scale s (num (Some x))) (items (member "setups" s))) reps
  | "hops_per_s" -> List.map (fun s -> get s "hops" /. scale s (get s "loop")) reps
  | "peak_heap_mb" -> (
      match r.timed with Some t -> [ get t "peak_heap_mb" ] | None -> [])
  | _ -> []

(* Event kinds reported as per-layer metrics, by the layer that owns the
   scheduling site; the remaining kinds (obs, fault, telemetry) never fire
   in these workloads and are only printed. *)
let kind_layers =
  [
    ("net.transmit", "netsim.transmit");
    ("net.deliver", "netsim.deliver");
    ("net.poll", "netsim.poll");
    ("tcp.timer", "tcp.timer");
    ("agent", "workload.agent");
    ("other", "engine.other");
  ]

let kind_names = List.init Sim.Kind.count Sim.Kind.name

let spans t =
  List.map
    (fun s -> (str (member "name" s), get s "count", get s "total_ns", get s "self_ns"))
    (items (member "spans" t))

let loop_of_reps reps = median (List.map (fun s -> get s "loop") reps)

(* Per-layer metrics, (name, unit, value), from the traced repeat plus the
   untraced repeats' GC counters and wall. *)
let layer_metrics r ~obs_ns =
  match r.traced with
  | None -> []
  | Some t ->
      let hops = get t "hops" and events = get t "events" and loop_ns = get t "loop" *. 1e9 in
      let per_hop x = x /. hops in
      let reps = timed_reps r in
      let sched = str (member "sched" t) in
      let base =
        [
          ("engine.events", "count", events);
          ("netsim.hops", "count", hops);
          ("engine.events_per_hop", "ratio", events /. hops);
          ("engine.pending_mean", "count", get t "pending_mean");
          ("engine.sched_ns_per_event", "ns", get t (Printf.sprintf "hold_%s_ns" sched));
          ("engine.hold_heap_ns_per_event", "ns", get t "hold_heap_ns");
          ("engine.hold_wheel_ns_per_event", "ns", get t "hold_wheel_ns");
          ("engine.loop_self_ns_per_hop", "ns", per_hop (loop_ns -. get t "event_ns"));
        ]
      in
      let span_metrics =
        List.concat_map
          (fun (name, count, total, self) ->
            match List.assoc_opt name kind_layers with
            | Some layer -> [ (layer ^ ".self_ns_per_hop", "ns", per_hop self) ]
            | None when List.mem name kind_names -> []
            | None ->
              let call, calls =
                if String.ends_with ~suffix:".router" name then ("ns_per_pkt", "pkts")
                else ("ns_per_call", "calls")
              in
              [
                (name ^ "." ^ call, "ns", if count > 0. then total /. count else 0.);
                (name ^ "." ^ calls, "count", count);
                (name ^ ".self_ns_per_hop", "ns", per_hop self);
              ])
          (spans t)
      in
      let drops = get t "drops" in
      let traced_wall = get t "wall" and untraced_wall = median (List.map (fun s -> get s "wall") reps) in
      base @ span_metrics
      @ [
          ("queueing.drop_ratio", "ratio", drops /. (drops +. get t "enqueued"));
          ("queueing.drops", "count", drops);
          ("queueing.hwm_max", "packets", get t "hwm");
          ( "gc.minor_words_per_hop",
            "words",
            median (List.map (fun s -> get s "minor_words" /. get s "hops") reps) );
          ( "gc.promoted_words_per_hop",
            "words",
            median (List.map (fun s -> get s "promoted_words" /. get s "hops") reps) );
          ("obs.ns_per_hop", "ns", obs_ns);
          ("trace.overhead_pct", "%", 100. *. ((traced_wall /. untraced_wall) -. 1.));
          ("trace.loop_ns_per_hop", "ns", per_hop loop_ns);
        ]

(* --- Report ------------------------------------------------------------- *)

(* The isolated router's per-op cost, printed beside the traced TVA
   router span; absent outside a repository checkout. *)
let pps_path = "BENCH_pps.json"

let pps_rows () =
  match J.parse (read_file pps_path) with
  | exception Sys_error _ -> []
  | Error _ -> []
  | Ok j ->
      List.filter_map
        (fun op ->
          match member op j with
          | Some o -> Some (op, get o "ns_per_packet")
          | None -> None)
        [ "cached_nonce"; "validate"; "request"; "legacy" ]

let print_breakdown r ~layers =
  match r.traced with
  | None -> ()
  | Some t ->
      let hops = get t "hops" and loop_ns = get t "loop" *. 1e9 and event_ns = get t "event_ns" in
      let value n = match List.find_opt (fun (m, _, _) -> m = n) layers with Some (_, _, v) -> v | None -> nan in
      Printf.printf "  traced repeat: loop %.3f s, %.0f hops, %.0f events, trace overhead %+.1f%%\n"
        (loop_ns /. 1e9) hops (get t "events") (value "trace.overhead_pct");
      Printf.printf "    %-28s %10s %11s %11s %12s %7s\n" "span" "count" "total_ms" "self_ms"
        "self_ns/hop" "%loop";
      let self_sum = ref 0. in
      List.iter
        (fun (name, count, total, self) ->
          self_sum := !self_sum +. self;
          if count > 0. then
            Printf.printf "    %-28s %10.0f %11.1f %11.1f %12.1f %7.2f\n" name count (total /. 1e6)
              (self /. 1e6) (self /. hops) (100. *. self /. loop_ns))
        (spans t);
      let loop_self = loop_ns -. event_ns in
      Printf.printf "    %-28s %10s %11s %11.1f %12.1f %7.2f\n" "engine.loop_self" "-" "-"
        (loop_self /. 1e6) (loop_self /. hops) (100. *. loop_self /. loop_ns);
      let residual = abs_float (!self_sum +. loop_self -. loop_ns) /. loop_ns in
      Printf.printf "    self times + loop self = %.1f ms against loop wall %.1f ms (residual %.4f%%)\n"
        ((!self_sum +. loop_self) /. 1e6) (loop_ns /. 1e6) (100. *. residual);
      if residual > 0.01 then begin
        r.failed <- r.failed + 1;
        note r "span accounting residual %.3f%% exceeds 1%%" (100. *. residual)
      end;
      Printf.printf
        "    hold model at %.0f pending: heap %.1f ns/event, wheel %.1f ns/event (workload runs %s); \
         loop self %.1f ns/event\n"
        (get t "pending_mean") (get t "hold_heap_ns") (get t "hold_wheel_ns")
        (str (member "sched" t)) (loop_self /. get t "events");
      let pps = pps_rows () in
      List.iter
        (fun n ->
          let v = value (n ^ ".router.ns_per_pkt") and pkts = value (n ^ ".router.pkts") in
          if pkts > 0. then
            Printf.printf "    %s.router %.1f ns/pkt over %.0f pkts%s\n" n v pkts
              (if n = "tva" && pps <> [] then
                 "; " ^ pps_path ^ " "
                 ^ String.concat ", "
                     (List.map (fun (op, ns) -> Printf.sprintf "%s %.1f" op ns) pps)
                 ^ " ns/pkt"
               else ""))
        [ "tva"; "siff"; "netfence"; "baseline" ]

let summary_json xs =
  let q1, m, q3 = quartiles xs in
  [
    ("n", J.Int (List.length xs));
    ("median", J.Float m);
    ("q1", J.Float q1);
    ("q3", J.Float q3);
    ("samples", J.List (List.map (fun x -> J.Float x) xs));
  ]

let print_e2e r =
  Printf.printf "  %-14s %-7s %3s %14s %14s %14s\n" "metric" "unit" "n" "median" "q1" "q3";
  List.iter
    (fun m ->
      let xs = e2e_samples r m.m_name in
      let q1, med, q3 = quartiles xs in
      Printf.printf "  %-14s %-7s %3d %14.6g %14.6g %14.6g\n" m.m_name m.m_unit (List.length xs) med
        q1 q3)
    e2e_metrics;
  let reps = timed_reps r in
  Printf.printf "  unscaled: wall %.6g s, probe %.6g s (reference %g s), median over %d repeats\n"
    (median (List.map (fun s -> get s "wall") reps))
    (median (List.map (fun s -> get s "probe") reps))
    Calib.reference_s (List.length reps);
  Printf.printf "  %-14s %-7s %3d %14.6g   (%d of %d cell runs failed)\n" "fail_frac" "ratio"
    r.attempted
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted

let git_rev () =
  let read f = try Some (String.trim (read_file f)) with Sys_error _ -> None in
  let packed name =
    Option.bind (read ".git/packed-refs") (fun text ->
        String.split_on_char '\n' text
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with [ rev; n ] when n = name -> Some rev | _ -> None))
  in
  Option.value ~default:"unknown"
    (match read ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head -> (
        let name = String.sub head 5 (String.length head - 5) in
        match read (Filename.concat ".git" name) with Some rev -> Some rev | None -> packed name)
    | head -> head)

let write_report results ~correct =
  let workload_json r ~layers =
    J.Obj
      ([
         ("name", J.String r.w.Workloads.name);
         ("why", J.String r.w.Workloads.why);
         ("cells", J.Int r.n_cells);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("fail_frac", J.Float (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
         ( "e2e",
           J.Obj
             (List.map
                (fun m ->
                  let xs = e2e_samples r m.m_name in
                  ( m.m_name,
                    J.Obj
                      ([
                         ("unit", J.String m.m_unit);
                         ("better", J.String (if m.m_better = Lower then "lower" else "higher"));
                         ("bound", J.number_or_null (bound m ~median:(median xs)));
                       ]
                      @ summary_json xs) ))
                e2e_metrics) );
         ("notes", J.List (List.map (fun s -> J.String s) r.notes));
       ]
      @
      if layers = [] then []
      else
        [
          ( "layers",
            J.Obj
              (List.map
                 (fun (n, u, v) -> (n, J.Obj [ ("unit", J.String u); ("value", J.number_or_null v) ]))
                 layers) );
        ])
  in
  J.Obj
    [
      ("benchmark", J.String "e2e");
      ( "provenance",
        J.Obj
          [
            ("git_rev", J.String (git_rev ()));
            ("ocaml_version", J.String Sys.ocaml_version);
            ("cores", J.Int (Domain.recommended_domain_count ()));
            ("reps", J.Int (if !seconds > 0. then 0 else if !reps > 0 then !reps else 5));
            ("seconds", J.Float !seconds);
            ("seed", J.Int !seed);
            ("smoke", J.Bool !smoke);
            ("argv", J.List (Array.to_list (Array.map (fun a -> J.String a) Sys.argv)));
          ] );
      ("correct", J.Bool correct);
      ("workloads", J.List (List.map (fun (r, layers) -> workload_json r ~layers) results));
    ]

(* --- compare ------------------------------------------------------------ *)

let compare_reports a_path b_path =
  let load p =
    match J.parse (read_file p) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" p e)
  in
  let a = load a_path and b = load b_path in
  let by_name j = List.map (fun w -> (str (member "name" w), w)) (items (member "workloads" j)) in
  let worse = ref false in
  Printf.printf "%-14s %-13s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name (by_name b) with
      | None -> Printf.printf "%-14s (missing from %s)\n" name b_path
      | Some wb ->
          List.iter
            (fun m ->
              let stat w k = num (Option.bind (Option.bind (member "e2e" w) (member m.m_name)) (member k)) in
              let samples w =
                items (Option.bind (Option.bind (member "e2e" w) (member m.m_name)) (member "samples"))
                |> List.map (fun x -> num (Some x))
              in
              let ma = stat wa "median" and mb = stat wb "median" in
              let change = (mb -. ma) /. ma in
              let worse_by = if m.m_better = Lower then change else -.change in
              let bound = bound m ~median:ma in
              let spread w = (stat w "q3" -. stat w "q1") /. stat w "median" in
              let all_better =
                let sa = samples wa and sb = samples wb in
                sa <> [] && sb <> []
                && List.for_all
                     (fun y ->
                       List.for_all (fun x -> if m.m_better = Lower then y < x else y > x) sa)
                     sb
              in
              let verdict =
                if Float.max (spread wa) (spread wb) > bound then
                  if all_better then "better" else "unresolved"
                else if worse_by > bound then "worse"
                else if worse_by < -.bound then "better"
                else "same"
              in
              if verdict = "worse" then worse := true;
              Printf.printf "%-14s %-13s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n" name m.m_name
                ma
                (Printf.sprintf "[%.6g, %.6g]" (stat wa "q1") (stat wa "q3"))
                mb
                (Printf.sprintf "[%.6g, %.6g]" (stat wb "q1") (stat wb "q3"))
                (100. *. change) (100. *. bound) verdict)
            e2e_metrics;
          let fa = get wa "fail_frac" and fb = get wb "fail_frac" in
          let verdict = if fb > fa then "worse" else if fb < fa then "better" else "same" in
          if verdict = "worse" then worse := true;
          Printf.printf "%-14s %-13s %12.6g %25s %12.6g %25s %8s %6s  %s\n" name "fail_frac" fa "" fb ""
            "" "" verdict)
    (by_name a);
  exit (if !worse then 1 else 0)

(* --- Main --------------------------------------------------------------- *)

let run_child mode =
  let w = Workloads.make ~smoke:!smoke (List.hd !workloads) in
  let cells = Workloads.cells ~seed:!seed w in
  let j = match mode with "timed" -> child_timed w cells | _ -> child_traced w cells in
  print_endline (J.to_string j)

let run_parent () =
  let ws = List.map (Workloads.make ~smoke:!smoke) !workloads in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let timed =
          spawn (child_args ~name:w.name "timed" (timing_args ~workloads:(List.length ws)))
        in
        let traced = if !traced then spawn (child_args ~name:w.name "traced" []) else None in
        {
          w;
          n_cells = List.length (Workloads.cells ~seed:!seed w);
          timed;
          traced;
          attempted = 0;
          failed = 0;
          notes = [];
        })
      ws
  in
  let find name = List.find_opt (fun r -> r.w.Workloads.name = name) results in
  (* fig8_stats is checked against, and its obs cost measured from, a
     fig8_legacy run of this invocation; run one when none was asked for. *)
  let legacy =
    match (find "fig8_stats", find "fig8_legacy") with
    | Some _, Some l -> Some l
    | Some _, None when !traced ->
        let w = Workloads.make ~smoke:!smoke "fig8_legacy" in
        let timed = spawn (child_args ~name:w.name "timed" [ "--reps"; "1" ]) in
        Some { w; n_cells = 0; timed; traced = None; attempted = 0; failed = 0; notes = [] }
    | _ -> None
  in
  let reference = load_reference () in
  List.iter
    (fun r ->
      let legacy_rows =
        if r.w.Workloads.name = "fig8_stats" then Option.bind legacy first_rows else None
      in
      check_outcomes r ~reference ~legacy_rows)
    results;
  let obs_ns r =
    match (r.w.Workloads.name, legacy, r.traced) with
    | "fig8_stats", Some l, Some t when timed_reps l <> [] ->
        (loop_of_reps (timed_reps r) -. loop_of_reps (timed_reps l)) *. 1e9 /. get t "hops"
    | _ -> 0.
  in
  (match reference with
  | Some (path, _) -> Printf.printf "outcomes checked against %s\n" path
  | None -> Printf.printf "no committed reference for seed %d: outcomes checked for repeatability\n" !seed);
  let with_layers =
    List.map
      (fun r ->
        let layers = layer_metrics r ~obs_ns:(obs_ns r) in
        Printf.printf "\n== %s (%d cells, seed %d)\n  %s\n" r.w.Workloads.name r.n_cells !seed
          r.w.Workloads.why;
        print_breakdown r ~layers;
        print_e2e r;
        List.iter (fun s -> Printf.printf "  note: %s\n" s) r.notes;
        (r, layers))
      results
  in
  let attempted = isum (fun r -> r.attempted) results and failed = isum (fun r -> r.failed) results in
  let correct = failed = 0 && attempted > 0 in
  if not correct then
    List.iter
      (fun r ->
        List.iter (fun s -> Printf.eprintf "%s: %s\n" r.w.Workloads.name s) r.notes;
        Printf.eprintf "%s: %d of %d cell runs failed\n" r.w.Workloads.name r.failed r.attempted)
      results;
  if !outcomes_out <> "" then
    Out_channel.with_open_bin !outcomes_out (fun oc ->
        output_string oc (Workloads.row_header ^ "\n");
        List.iter
          (fun r ->
            List.iter (fun row -> output_string oc (row ^ "\n")) (Option.value ~default:[] (first_rows r)))
          results);
  if !out_path <> "" then begin
    let text = J.to_string_pretty (write_report with_layers ~correct) in
    Out_channel.with_open_bin !out_path (fun oc -> output_string oc text);
    (* Read it back: what lands on disk must parse. *)
    match J.parse (read_file !out_path) with
    | Ok j when member "workloads" j <> None -> ()
    | _ ->
        Printf.eprintf "%s does not parse back\n" !out_path;
        exit 1
  end;
  let prefix r m = if List.length results > 1 then r.w.Workloads.name ^ "." ^ m else m in
  let metrics =
    List.concat_map
      (fun (r, layers) ->
        if !traced then List.map (fun (n, u, v) -> (prefix r n, u, v)) layers
        else
          List.map (fun m -> (prefix r m.m_name, m.m_unit, median (e2e_samples r m.m_name))) e2e_metrics)
      with_layers
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, u, v) -> (n, J.Obj [ ("value", J.number_or_null v); ("unit", J.String u) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: a :: b :: _ -> compare_reports a b
  | _ ->
      Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
      List.iter (fun n -> ignore (Workloads.make ~smoke:false n)) !workloads;
      if !child <> "" then run_child !child else run_parent ()

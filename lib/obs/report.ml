(* The end-of-run observability report: plain data, so a report built
   inside a [Pool] worker domain crosses back to the submitting domain and
   merges deterministically.  Builders snapshot live structures (counter
   registry, the net's per-link qdisc stats, a profiler); rendering goes
   through {!Export} (JSON) or a text dashboard. *)

type qdisc_row = {
  q_name : string;
  q_enqueued : int;
  q_dequeued : int;
  q_dropped : int;
  q_bytes_enqueued : int;
  q_bytes_dequeued : int;
  q_bytes_dropped : int;
  q_hwm : int;
  q_residual_packets : int; (* packets still queued when the run ended *)
  q_residual_bytes : int;
}

type link_row = {
  l_name : string; (* "src->dst" *)
  l_tx_packets : int;
  l_tx_bytes : int;
  l_qdiscs : qdisc_row list; (* composite walked parent-first *)
}

type cache_row = {
  c_router : string;
  c_size : int;
  c_capacity : int;
  c_evictions : int;
  c_hwm : int;
}

type profile_row = { p_kind : string; p_events : int; p_wall_s : float }

type gauge_row = {
  g_name : string;
  g_count : int;
  g_mean : float;
  g_max : float;
  g_p50 : float;
  g_p99 : float;
  g_render : string; (* pre-rendered histogram, for the dashboard *)
}

(* One telemetry channel summarized over its interval windows; the stats
   quadruple matches [gauge_row] so both render through one formatter. *)
type series_row = {
  s_name : string;
  s_mode : string; (* "cumulative" (stats over per-second rates) or "level" *)
  s_windows : int;
  s_mean : float;
  s_max : float;
  s_p50 : float;
  s_p99 : float;
  s_spark : string; (* sparkline over the surviving windows, oldest first *)
}

type incident_row = {
  i_rule : string;
  i_onset : float;
  i_clear : float; (* NaN = still open at report time *)
  i_peak : float;
  i_peak_at : float;
  i_open : bool;
}

type t = {
  counters : Counters.snap;
  links : link_row list;
  caches : cache_row list;
  profile : profile_row list;
  gauges : gauge_row list;
  events : int; (* events the loop fired; 0 = not measured *)
  wall_s : float; (* event-loop wall seconds; 0. = not measured *)
  trace_jsonl : string option;
  series : series_row list; (* empty unless telemetry was on *)
  series_interval : float; (* 0. unless telemetry was on *)
  series_json : Export.t option; (* the full interval dump, for --stats *)
  incidents : incident_row list;
}

let empty =
  {
    counters = [];
    links = [];
    caches = [];
    profile = [];
    gauges = [];
    events = 0;
    wall_s = 0.;
    trace_jsonl = None;
    series = [];
    series_interval = 0.;
    series_json = None;
    incidents = [];
  }

(* --- builders ----------------------------------------------------------- *)

let qdisc_rows qdisc =
  let rows = ref [] in
  Qdisc.iter_nested qdisc (fun q ->
      let s = q.Qdisc.stats in
      rows :=
        {
          q_name = q.Qdisc.name;
          q_enqueued = s.Qdisc.enqueued;
          q_dequeued = s.Qdisc.dequeued;
          q_dropped = s.Qdisc.dropped;
          q_bytes_enqueued = s.Qdisc.bytes_enqueued;
          q_bytes_dequeued = s.Qdisc.bytes_dequeued;
          q_bytes_dropped = s.Qdisc.bytes_dropped;
          q_hwm = s.Qdisc.hwm_packets;
          q_residual_packets = Qdisc.packet_count q;
          q_residual_bytes = Qdisc.byte_count q;
        }
        :: !rows);
  List.rev !rows

let link_rows_of_net net =
  List.concat_map
    (fun node ->
      List.map
        (fun link ->
          {
            l_name =
              Net.node_name (Net.link_src link) ^ "->" ^ Net.node_name (Net.link_dst link);
            l_tx_packets = Net.link_tx_packets link;
            l_tx_bytes = Net.link_tx_bytes link;
            l_qdiscs = qdisc_rows (Net.link_qdisc link);
          })
        (Net.links_out_of node))
    (Net.nodes net)

let profile_rows profile =
  List.map
    (fun (name, events, wall, _ns) -> { p_kind = name; p_events = events; p_wall_s = wall })
    (Profile.kind_rows profile)

let gauge_rows profile =
  List.map
    (fun g ->
      let s = Profile.gauge_summary g in
      let h = Profile.gauge_hist g in
      {
        g_name = Profile.gauge_name g;
        g_count = Stats.Summary.count s;
        g_mean = Stats.Summary.mean s;
        g_max = Stats.Summary.max s;
        g_p50 = Stats.Histogram.quantile h 0.5;
        g_p99 = Stats.Histogram.quantile h 0.99;
        g_render = Fmt.str "%a" Stats.Histogram.pp h;
      })
    (Profile.gauges profile)

(* Sparkline over the last [width] windows, oldest first, scaled to the
   series max (all-low when flat at zero). *)
let spark_glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 48) values =
  let n = Array.length values in
  let keep = min n width in
  let hi = ref 0. in
  for i = n - keep to n - 1 do
    if values.(i) > !hi then hi := values.(i)
  done;
  let buf = Buffer.create (3 * keep) in
  for i = n - keep to n - 1 do
    let level =
      if !hi <= 0. then 0
      else
        let l = int_of_float (values.(i) /. !hi *. 7.99) in
        if l < 0 then 0 else if l > 7 then 7 else l
    in
    Buffer.add_string buf spark_glyphs.(level)
  done;
  Buffer.contents buf

(* Summarize every telemetry channel: cumulative channels over their
   per-second rates, level channels over raw values.  Percentiles are
   exact (sorted copy) — this runs once, at report build. *)
let series_rows ts =
  List.mapi
    (fun chan name ->
      let n = Timeseries.length ts in
      let vals = Array.init n (fun i -> Timeseries.rate ts ~chan i) in
      let sorted = Array.copy vals in
      Array.sort Float.compare sorted;
      let q p =
        if n = 0 then nan
        else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))
      in
      let sum = Array.fold_left ( +. ) 0. vals in
      {
        s_name = name;
        s_mode =
          (match Timeseries.mode ts ~chan with
          | Timeseries.Cumulative -> "cumulative"
          | Timeseries.Level -> "level");
        s_windows = n;
        s_mean = (if n = 0 then nan else sum /. float_of_int n);
        s_max = (if n = 0 then nan else sorted.(n - 1));
        s_p50 = q 0.5;
        s_p99 = q 0.99;
        s_spark = sparkline vals;
      })
    (Timeseries.channels ts)

let incident_rows detect =
  List.map
    (fun (i : Detect.incident) ->
      {
        i_rule = i.Detect.in_rule;
        i_onset = i.Detect.in_onset;
        i_clear = i.Detect.in_clear;
        i_peak = i.Detect.in_peak;
        i_peak_at = i.Detect.in_peak_at;
        i_open = i.Detect.in_open;
      })
    (Detect.incidents detect)

let trace_jsonl ?node_name trace =
  if Trace.is_nop trace || Trace.length trace = 0 then None
  else begin
    let buf = Buffer.create 4096 in
    Trace.to_jsonl ?node_name trace buf;
    Some (Buffer.contents buf)
  end

(* --- merge -------------------------------------------------------------- *)

(* Fold sweep-cell counter snapshots in submission order (Pool.map returns
   results in that order), so the aggregate is deterministic across --jobs
   settings. *)
let merge_counters reports =
  List.fold_left (fun acc r -> Counters.merge_snaps acc r.counters) [] reports

(* --- JSON --------------------------------------------------------------- *)

let counters_json (snap : Counters.snap) =
  Export.Obj
    (List.map
       (fun (name, counts) ->
         let fields = ref [] in
         for i = Array.length counts - 1 downto 0 do
           if counts.(i) <> 0 then fields := (Event.name_of_int i, Export.Int counts.(i)) :: !fields
         done;
         (name, Export.Obj !fields))
       snap)

let qdisc_json q =
  Export.Obj
    [
      ("name", Export.String q.q_name);
      ("enqueued", Export.Int q.q_enqueued);
      ("dequeued", Export.Int q.q_dequeued);
      ("dropped", Export.Int q.q_dropped);
      ("bytes_enqueued", Export.Int q.q_bytes_enqueued);
      ("bytes_dequeued", Export.Int q.q_bytes_dequeued);
      ("bytes_dropped", Export.Int q.q_bytes_dropped);
      ("hwm_packets", Export.Int q.q_hwm);
      ("residual_packets", Export.Int q.q_residual_packets);
      ("residual_bytes", Export.Int q.q_residual_bytes);
    ]

let link_json l =
  Export.Obj
    [
      ("name", Export.String l.l_name);
      ("tx_packets", Export.Int l.l_tx_packets);
      ("tx_bytes", Export.Int l.l_tx_bytes);
      ("qdiscs", Export.List (List.map qdisc_json l.l_qdiscs));
    ]

let cache_json c =
  Export.Obj
    [
      ("router", Export.String c.c_router);
      ("size", Export.Int c.c_size);
      ("capacity", Export.Int c.c_capacity);
      ("evictions", Export.Int c.c_evictions);
      ("hwm", Export.Int c.c_hwm);
    ]

let profile_json p =
  Export.Obj
    [
      ("kind", Export.String p.p_kind);
      ("events", Export.Int p.p_events);
      ("wall_s", Export.Float p.p_wall_s);
    ]

let gauge_json g =
  Export.Obj
    [
      ("name", Export.String g.g_name);
      ("count", Export.Int g.g_count);
      ("mean", Export.number_or_null g.g_mean);
      ("max", Export.number_or_null g.g_max);
      ("p50", Export.number_or_null g.g_p50);
      ("p99", Export.number_or_null g.g_p99);
    ]

let series_row_json s =
  Export.Obj
    [
      ("name", Export.String s.s_name);
      ("mode", Export.String s.s_mode);
      ("windows", Export.Int s.s_windows);
      ("mean", Export.number_or_null s.s_mean);
      ("max", Export.number_or_null s.s_max);
      ("p50", Export.number_or_null s.s_p50);
      ("p99", Export.number_or_null s.s_p99);
    ]

let incident_json i =
  Export.Obj
    [
      ("rule", Export.String i.i_rule);
      ("onset", Export.Float i.i_onset);
      ("clear", Export.number_or_null i.i_clear);
      ("peak", Export.number_or_null i.i_peak);
      ("peak_at", Export.Float i.i_peak_at);
      ("open", Export.Bool i.i_open);
    ]

let to_json t =
  Export.Obj
    ([
       ("counters", counters_json t.counters);
       ("links", Export.List (List.map link_json t.links));
       ("flow_caches", Export.List (List.map cache_json t.caches));
       ("profile", Export.List (List.map profile_json t.profile));
       ("gauges", Export.List (List.map gauge_json t.gauges));
     ]
    @ (if t.events > 0 then [ ("events", Export.Int t.events) ] else [])
    @ (if t.wall_s > 0. then [ ("wall_s", Export.Float t.wall_s) ] else [])
    @ (if t.series = [] then []
       else [ ("series", Export.List (List.map series_row_json t.series)) ])
    @ (match t.series_json with None -> [] | Some j -> [ ("telemetry", j) ])
    @
    if t.incidents = [] then []
    else [ ("incidents", Export.List (List.map incident_json t.incidents)) ])

let to_json_string t = Export.to_string_pretty (to_json t)

(* --- dashboard ---------------------------------------------------------- *)

let pp_counters fmt (snap : Counters.snap) =
  List.iter
    (fun (name, counts) ->
      let rows = ref [] in
      for i = Array.length counts - 1 downto 0 do
        if counts.(i) <> 0 then rows := (Event.name_of_int i, counts.(i)) :: !rows
      done;
      if !rows <> [] then begin
        let wname =
          List.fold_left (fun w (n, _) -> max w (String.length n)) 0 !rows
        in
        Format.fprintf fmt "== %s ==@." name;
        List.iter (fun (n, c) -> Format.fprintf fmt "  %-*s %10d@." wname n c) !rows
      end)
    snap

let pp_links fmt links =
  if links <> [] then begin
    Format.fprintf fmt "== links ==@.";
    List.iter
      (fun l ->
        Format.fprintf fmt "  %s: tx=%d (%dB)@." l.l_name l.l_tx_packets l.l_tx_bytes;
        List.iter
          (fun q ->
            Format.fprintf fmt "    %-20s enq=%-9d deq=%-9d drop=%-9d hwm=%-6d residual=%d@."
              q.q_name q.q_enqueued q.q_dequeued q.q_dropped q.q_hwm q.q_residual_packets)
          l.l_qdiscs)
      links
  end

let pp_caches fmt caches =
  if caches <> [] then begin
    Format.fprintf fmt "== flow caches ==@.";
    List.iter
      (fun c ->
        Format.fprintf fmt "  %s: size=%d/%d hwm=%d evictions=%d@." c.c_router c.c_size
          c.c_capacity c.c_hwm c.c_evictions)
      caches
  end

let pp_profile fmt profile =
  if profile <> [] then begin
    Format.fprintf fmt "== event loop ==@.";
    List.iter
      (fun p ->
        let ns = if p.p_events = 0 then 0. else 1e9 *. p.p_wall_s /. float_of_int p.p_events in
        Format.fprintf fmt "  %-14s %10d events %10.3f ms %8.0f ns/event@." p.p_kind p.p_events
          (1e3 *. p.p_wall_s) ns)
      profile
  end

(* The one stats line both gauge rows and interval-series rows render
   through, so the dashboard and [--series] agree on the format. *)
let pp_stat_line fmt ~count ~count_label ~mean ~max ~p50 ~p99 =
  Format.fprintf fmt "  %s=%d mean=%.2f max=%.0f p50=%.2f p99=%.2f@." count_label count mean max
    p50 p99

let pp_gauges fmt gauges =
  List.iter
    (fun g ->
      Format.fprintf fmt "== gauge %s ==@." g.g_name;
      pp_stat_line fmt ~count:g.g_count ~count_label:"samples" ~mean:g.g_mean ~max:g.g_max
        ~p50:g.g_p50 ~p99:g.g_p99;
      if g.g_render <> "" then
        String.split_on_char '\n' g.g_render
        |> List.iter (fun line -> if line <> "" then Format.fprintf fmt "  %s@." line))
    gauges

let pp_series fmt t =
  if t.series <> [] then begin
    Format.fprintf fmt "== telemetry (interval %gs) ==@." t.series_interval;
    List.iter
      (fun s ->
        Format.fprintf fmt "== series %s (%s%s) ==@." s.s_name s.s_mode
          (if s.s_mode = "cumulative" then ", per-second rates" else "");
        pp_stat_line fmt ~count:s.s_windows ~count_label:"windows" ~mean:s.s_mean ~max:s.s_max
          ~p50:s.s_p50 ~p99:s.s_p99;
        if s.s_spark <> "" then Format.fprintf fmt "  %s@." s.s_spark)
      t.series
  end

let pp_incidents fmt incidents =
  if incidents <> [] then begin
    Format.fprintf fmt "== incidents ==@.";
    List.iter
      (fun i ->
        if Float.is_nan i.i_clear then
          Format.fprintf fmt "  %-24s onset=%.3fs open peak=%.2f@%.3fs@." i.i_rule i.i_onset
            i.i_peak i.i_peak_at
        else
          Format.fprintf fmt "  %-24s onset=%.3fs clear=%.3fs%s peak=%.2f@%.3fs@." i.i_rule
            i.i_onset i.i_clear
            (if i.i_open then " (run end)" else "")
            i.i_peak i.i_peak_at)
      incidents
  end

(* Overall event-loop throughput: events fired over the loop's wall time. *)
let pp_throughput fmt t =
  if t.wall_s > 0. && t.events > 0 then begin
    Format.fprintf fmt "== event loop throughput ==@.";
    Format.fprintf fmt "  %-12s %12d events %10.3f s %12.0f events/s@." "total" t.events t.wall_s
      (float_of_int t.events /. t.wall_s)
  end

let pp_dashboard fmt t =
  pp_counters fmt t.counters;
  pp_links fmt t.links;
  pp_caches fmt t.caches;
  pp_profile fmt t.profile;
  pp_gauges fmt t.gauges;
  pp_series fmt t;
  pp_incidents fmt t.incidents;
  pp_throughput fmt t

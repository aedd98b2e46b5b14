type point = {
  n_attackers : int;
  fraction_completed : float;
  avg_transfer_time : float;
  median_transfer_time : float;
  jain : float;
  report : Obs.Report.t option;
}

type series = { scheme : string; points : point list }

let default_attacker_counts = [ 1; 2; 5; 10; 20; 40; 60; 80; 100 ]

let sim_params = { Tva.Params.default with Tva.Params.request_fraction = 0.01 }

(* The figure reproductions default to [paper_schemes] — the four the
   paper plots — so adding a scheme to the full registry can never change
   fig8/9/10 output.  [schemes] is the registry everything else (CLI name
   validation, the cross-scheme report) derives from. *)
let paper_schemes =
  [
    ("internet", Scheme.internet ());
    ("siff", Scheme.siff ());
    ("pushback", Scheme.pushback ());
    ("tva", Scheme.tva ~params:sim_params ());
  ]

let schemes = paper_schemes @ [ ("netfence", Scheme.netfence ()) ]

let attack_rate_bps = 1e6 (* each attacker floods at one legitimate-user rate *)

(* Every (scheme × attacker-count) cell is an independent deterministic
   simulation — its config carries its own seed and [Experiment.run] builds
   a private [Sim.t]/[Rng.t] — so the grid fans out over [Pool.map].
   Results come back in submission order, making the sweep's output
   bit-identical whatever [jobs] is; [~jobs:1] (the library default) is
   exactly the seed's sequential loop. *)
let sweep_grid ~schemes ~attacker_counts ~base ~attack =
  List.concat_map
    (fun (_, factory) ->
      List.map
        (fun n ->
          {
            base with
            Experiment.scheme = factory;
            n_attackers = n;
            attack = attack ~rate_bps:attack_rate_bps;
          })
        attacker_counts)
    schemes

(* Re-chunk the flat scheme-major results back into one series per
   scheme. *)
let chunk_series ~schemes ~per_scheme points =
  let rec chunk schemes points =
    match schemes with
    | [] -> []
    | (name, _) :: rest ->
        let mine = List.filteri (fun i _ -> i < per_scheme) points in
        let others = List.filteri (fun i _ -> i >= per_scheme) points in
        { scheme = name; points = mine } :: chunk rest others
  in
  chunk schemes points

(* Without [obs] nothing observability-related is installed, so figure
   output stays byte-identical to the pre-obs driver.  With it, every cell
   runs under [obs] and ships its report — plain data — back across the
   worker domain in its point. *)
let flood_sweep ?(jobs = 1) ?obs ?(schemes = paper_schemes)
    ?(attacker_counts = default_attacker_counts) ?(base = Experiment.default) ~attack () =
  let grid = sweep_grid ~schemes ~attacker_counts ~base ~attack in
  let points =
    Pool.map ~jobs
      (fun cfg ->
        let r = Experiment.run ?obs cfg in
        {
          n_attackers = cfg.Experiment.n_attackers;
          fraction_completed = r.Experiment.fraction_completed;
          avg_transfer_time = r.Experiment.avg_transfer_time;
          median_transfer_time = Metrics.median_transfer_time r.Experiment.metrics;
          jain = Option.value ~default:nan (Metrics.jain_index_opt r.Experiment.user_goodputs);
          report = r.Experiment.obs;
        })
      grid
  in
  chunk_series ~schemes ~per_scheme:(List.length attacker_counts) points

let fig8 ?jobs ?attacker_counts ?base () =
  flood_sweep ?jobs ?attacker_counts ?base
    ~attack:(fun ~rate_bps -> Experiment.Legacy_flood { rate_bps })
    ()

let fig9 ?jobs ?attacker_counts ?base () =
  flood_sweep ?jobs ?attacker_counts ?base
    ~attack:(fun ~rate_bps -> Experiment.Request_flood { rate_bps })
    ()

let fig10 ?jobs ?attacker_counts ?base () =
  flood_sweep ?jobs ?attacker_counts ?base
    ~attack:(fun ~rate_bps -> Experiment.Authorized_flood { rate_bps })
    ()

type fig11_run = { label : string; timeline : Stats.Timeseries.t }

let fig11 ?(jobs = 1) ?(base = Experiment.default) ?(duration = 60.) () =
  let siff_rotation = 3.0 in
  let runs =
    [
      ("tva/all-at-once", Scheme.tva ~params:sim_params (), 1);
      ("tva/10-at-a-time", Scheme.tva ~params:sim_params (), 10);
      ("siff/all-at-once", Scheme.siff ~rotation_period:siff_rotation (), 1);
      ("siff/10-at-a-time", Scheme.siff ~rotation_period:siff_rotation (), 10);
    ]
  in
  Pool.map ~jobs
    (fun (label, factory, groups) ->
      let cfg =
        {
          base with
          Experiment.scheme = factory;
          n_attackers = 100;
          max_time = duration;
          transfers_per_user = max_int;
          attack =
            Experiment.Imprecise_flood
              { rate_bps = attack_rate_bps; groups; group_interval = siff_rotation; start_at = 10. };
        }
      in
      let r = Experiment.run cfg in
      { label; timeline = Metrics.timeline r.Experiment.metrics })
    runs

(* --- Chaos scenarios (Sec. 3.8 robustness; DESIGN.md §11) ------------- *)

let chaos_suite ?jobs ?obs ?flight_dir ?base () =
  Chaos.run_suite ?jobs ?obs ?flight_dir ?base Chaos.default_suite

let chaos_single ?obs ?flight_dir ?base ?(expect = Faults.Invariants.relaxed) spec =
  Chaos.run_cell ?obs ?flight_dir ?base
    { Chaos.cl_label = "custom"; cl_spec = spec; cl_expect = expect }

let render series_list =
  let table =
    Stats.Table.create ~columns:[ "attackers"; "scheme"; "fraction_completed"; "avg_time_s" ]
  in
  let counts =
    match series_list with [] -> [] | s :: _ -> List.map (fun p -> p.n_attackers) s.points
  in
  (* Pre-index each series' points by attacker count — the seed re-scanned
     every point list per row (O(n²) over the sweep).  First occurrence
     wins, matching the old [List.find_opt]. *)
  let indexed =
    List.map
      (fun s ->
        let by_count = Hashtbl.create (2 * List.length s.points) in
        List.iter
          (fun p ->
            if not (Hashtbl.mem by_count p.n_attackers) then
              Hashtbl.add by_count p.n_attackers p)
          s.points;
        (s, by_count))
      series_list
  in
  List.iter
    (fun n ->
      List.iter
        (fun (s, by_count) ->
          match Hashtbl.find_opt by_count n with
          | None -> ()
          | Some p ->
              Stats.Table.add_row table
                [
                  string_of_int n;
                  s.scheme;
                  Printf.sprintf "%.3f" p.fraction_completed;
                  (if Float.is_nan p.avg_transfer_time then "-"
                   else Printf.sprintf "%.3f" p.avg_transfer_time);
                ])
        indexed)
    counts;
  table

let render_fig11 runs ~bins =
  let horizon =
    List.fold_left
      (fun acc r ->
        Array.fold_left (fun acc (time, _) -> Float.max acc time) acc
          (Stats.Timeseries.points r.timeline))
      0. runs
  in
  let nbins = int_of_float (ceil (horizon /. bins)) in
  let table =
    Stats.Table.create ~columns:("time_s" :: List.map (fun r -> r.label) runs)
  in
  (* One pass per run to bucket points into (count, max) cells — the seed
     rescanned every timeline per bin, O(bins × points) per run.  A point
     lands in bin [i] iff [i*bins <= t < (i+1)*bins], exactly the
     [values_in] window the seed used; the truncated quotient is nudged
     when rounding in the division disagrees with those comparisons. *)
  let binned =
    List.map
      (fun r ->
        let counts = Array.make (max nbins 0) 0 in
        let maxima = Array.make (max nbins 0) neg_infinity in
        Array.iter
          (fun (time, v) ->
            let i = int_of_float (time /. bins) in
            let i =
              if time < float_of_int i *. bins then i - 1
              else if time >= float_of_int (i + 1) *. bins then i + 1
              else i
            in
            if i >= 0 && i < nbins then begin
              counts.(i) <- counts.(i) + 1;
              maxima.(i) <- Float.max maxima.(i) v
            end)
          (Stats.Timeseries.points r.timeline);
        (counts, maxima))
      runs
  in
  for i = 0 to nbins - 1 do
    let lo = float_of_int i *. bins in
    let cells =
      List.map
        (fun (counts, maxima) ->
          if counts.(i) = 0 then "-" else Printf.sprintf "%.2f" maxima.(i))
        binned
    in
    Stats.Table.add_row table (Printf.sprintf "%.0f" lo :: cells)
  done;
  table

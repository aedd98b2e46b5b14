(** Canned reproductions of the paper's simulation figures.

    Each function sweeps the attack intensity (number of 1 Mb/s attackers)
    across the paper's four schemes and reports its two metrics; Fig. 11
    instead produces transfer-time-vs-time series.  Simulation parameters
    follow Sec. 5: the dumbbell of Fig. 7, requests limited to 1% of
    capacity for TVA, 20 KB transfers, 60 ms RTT. *)

type point = {
  n_attackers : int;
  fraction_completed : float;
  avg_transfer_time : float;
  median_transfer_time : float;  (** median of completed transfers; [nan] if none *)
  jain : float;
      (** Jain fairness index over per-user goodputs; [nan] when no user
          completed anything ({!Metrics.jain_index_opt}) *)
  report : Obs.Report.t option;  (** the cell's observability report, iff swept with [obs] *)
}

type series = { scheme : string; points : point list }

val default_attacker_counts : int list
(** [1; 2; 5; 10; 20; 40; 60; 80; 100] — a log-spaced sweep of the paper's
    1–100 range. *)

val sim_params : Tva.Params.t
(** {!Tva.Params.default} with the request limit tightened to 1% (Sec. 5). *)

val paper_schemes : (string * Scheme.factory) list
(** internet, siff, pushback, tva — the four the paper plots, with
    simulation parameters applied.  The default scheme set of the figure
    sweeps, so figure output is pinned even as the registry grows. *)

val schemes : (string * Scheme.factory) list
(** The full scheme registry: {!paper_schemes} followed by netfence.  CLI
    name validation and the cross-scheme report derive from this list. *)

val flood_sweep :
  ?jobs:int ->
  ?obs:Experiment.obs_config ->
  ?schemes:(string * Scheme.factory) list ->
  ?attacker_counts:int list ->
  ?base:Experiment.config ->
  attack:(rate_bps:float -> Experiment.attack) ->
  unit ->
  series list
(** Every (scheme × attacker-count) cell is an independent simulation, so
    the grid runs on [jobs] worker domains via {!Pool.map} (default 1 =
    sequential).  Output is bit-identical for every [jobs] value: results
    return in submission order and each run owns its simulator and RNG.
    [schemes] defaults to {!paper_schemes}.  Without [obs] no
    observability is installed and every point's [report] is [None]; with
    it, each cell runs under [obs] and its point carries the cell's
    report.  Reports are plain data, so merging them in grid order
    ({!Obs.Report.merge_counters}) gives the same aggregate for every
    [jobs] value. *)

val fig8 :
  ?jobs:int -> ?attacker_counts:int list -> ?base:Experiment.config -> unit -> series list
(** Legacy traffic floods. *)

val fig9 :
  ?jobs:int -> ?attacker_counts:int list -> ?base:Experiment.config -> unit -> series list
(** Request packet floods. *)

val fig10 :
  ?jobs:int -> ?attacker_counts:int list -> ?base:Experiment.config -> unit -> series list
(** Authorized floods via a colluder. *)

type fig11_run = {
  label : string; (* e.g. "tva/all-at-once" *)
  timeline : Stats.Timeseries.t; (* (completion time, duration) points *)
}

val fig11 :
  ?jobs:int -> ?base:Experiment.config -> ?duration:float -> unit -> fig11_run list
(** Imprecise authorization: TVA (32 KB / 10 s grants, no renewal for
    attackers) vs SIFF (3 s secret rotation), each under an all-at-once
    100-attacker flood and a 10-groups-of-10 staggered flood starting at
    t = 10 s. *)

val chaos_suite :
  ?jobs:int ->
  ?obs:Experiment.obs_config ->
  ?flight_dir:string ->
  ?base:Experiment.config ->
  unit ->
  Chaos.outcome list
(** {!Chaos.default_suite} over {!Chaos.run_suite}: the eight stock fault
    scenarios against the TVA dumbbell, each an independent deterministic
    run (telemetry + detectors on by default — {!Chaos.obs_default}).
    [tva_sim chaos] without [--faults]. *)

val chaos_single :
  ?obs:Experiment.obs_config ->
  ?flight_dir:string ->
  ?base:Experiment.config ->
  ?expect:Faults.Invariants.expectation ->
  Faults.Spec.t ->
  Chaos.outcome
(** One custom fault spec under {!Faults.Invariants.relaxed} expectations
    (accounting invariants only) unless [expect] says otherwise.
    [tva_sim chaos --faults <spec>]. *)

val render : series list -> Stats.Table.t
(** One row per (attackers, scheme): completion fraction and mean time. *)

val render_fig11 : fig11_run list -> bins:float -> Stats.Table.t
(** Max transfer time per [bins]-second interval for each run — the shape
    Fig. 11 plots. *)

(** The chaos harness: deterministic fault-injection runs with recovery
    checking (paper Sec. 3.8; DESIGN.md §11; EXPERIMENTS.md "Robustness").

    Each {!cell} is one fault scenario — a parsed {!Faults.Spec.t} plus
    the {!Faults.Invariants.expectation} it must meet — run as one
    independent simulation via {!Experiment.run}[ ?faults].  Cells are
    pure data, so a suite fans out over {!Pool.map} and its outcomes are
    bit-identical for every [jobs] value and across repeat runs with the
    same seed. *)

type cell = {
  cl_label : string;  (** short scenario name, e.g. ["wipe"] *)
  cl_spec : Faults.Spec.t;
  cl_expect : Faults.Invariants.expectation;
}

type outcome = {
  oc_label : string;
  oc_spec : string;  (** canonical spec string *)
  oc_fraction : float;  (** completion fraction under the fault *)
  oc_avg_time : float;
  oc_injected : (string * int) list;  (** {!Faults.Inject.injected} *)
  oc_latencies : float list;
      (** every sender re-acquisition latency, seconds, user order *)
  oc_verdict : Faults.Invariants.verdict;
  oc_report : Obs.Report.t;  (** the run's full observability report *)
  oc_engage_s : float option;
      (** first detector onset, sim seconds — when the incident detectors
          noticed the fault's effect ([None] if nothing fired) *)
  oc_recover_s : float option;
      (** last detector clear minus first onset — how long the run spent
          inside incidents.  Continuous faults (loss, burst) hold their
          detectors engaged to run end; their last incident closes at
          run-end time, so this is a floor, flagged by [oc_recovered]. *)
  oc_recovered : bool;
      (** true iff every incident truly cleared before run end; false when
          any stayed open (its clear time is the run end, not a recovery).
          Vacuously true without incidents. *)
  oc_flight_dumps : string list;
      (** flight-recorder artifacts written during this cell (incident
          onsets, invariant failure), oldest first; [[]] without
          [flight_dir] *)
}

val base_config : Experiment.config
(** {!Experiment.default} under the TVA scheme with the Sec. 5 simulation
    parameters (1% request channel) — the suite's default workload: 10
    users, no attack, so every degradation is the fault's doing. *)

val run_cell :
  ?obs:Experiment.obs_config -> ?flight_dir:string -> ?base:Experiment.config -> cell -> outcome
(** One scenario: run [base] with the cell's spec installed, then check
    the cell's expectation over the counters, the senders' re-acquisition
    latencies and the completion fraction.  [flight_dir]
    turns the flight recorder on: a dump per incident onset plus one on an
    invariant failure, capped per run; the flight label is always the
    cell's label.  [obs] defaults to {!Experiment.obs_default} plus a
    100 ms telemetry interval: counters, interval series and incident
    detectors, no trace or profiler.  The tick chain rides auxiliary
    events, so chaos numbers are bit-identical to a telemetry-off run. *)

val run_suite :
  ?jobs:int ->
  ?obs:Experiment.obs_config ->
  ?flight_dir:string ->
  ?base:Experiment.config ->
  cell list ->
  outcome list
(** {!run_cell} over {!Pool.map} (default [jobs = 1]); outcomes return in
    cell order whatever [jobs] is. *)

val reacquire_bound : float
(** The documented re-acquisition bound, seconds: one 63 ms RTT plus the
    worst-case request-channel drain when a router-state fault makes the
    whole sender cohort re-request at once (10 MTU-sized requests through
    the 1% request channel ~ 1.2 s), with slack (see EXPERIMENTS.md). *)

val default_suite : cell list
(** The eight stock scenarios — loss, burst, dup+reorder, link down, flap,
    cache wipe, secret rotation, router restart — with their documented
    expectations (wipe and restart must demote, re-acquire within the
    bound, and keep completion above their floors). *)

val all_ok : outcome list -> bool
(** True iff every outcome's verdict passed — the chaos exit-code gate. *)

val render : outcome list -> Stats.Table.t
(** One row per scenario: fraction, injection and re-acquisition counts,
    worst latency, verdict.  A [recover_s] cell suffixed ["+"] means the
    detectors never cleared ([oc_recovered = false]): the figure is time
    to run end, not a measured recovery. *)

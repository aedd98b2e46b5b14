(** The unified cross-scheme fairness report.

    One deterministic artifact that puts all registered schemes side by
    side on the fig8-style legacy-flood sweep ({!Scenario.flood_sweep}
    over {!Scenario.schemes}), scored by the three cross-scheme metrics:
    completion fraction, median transfer time, and the Jain fairness index
    over per-user goodputs.  [tva_sim report] renders it to
    [results/REPORT.md] and [BENCH_report.json]; [dune build @reproduce]
    checks both byte for byte. *)

val default_attacker_counts : int list
(** [1; 10; 40; 100] — the fig8 sweep's decades, kept small enough for a
    CI smoke run at full fidelity. *)

val headline_rows : Scenario.series list -> string list
(** One README-ready markdown row per scheme at the sweep's largest
    attacker count ([| `scheme` | completed | median_s | jain |]) — the
    rows the README comparison table shows. *)

val to_markdown : Scenario.series list -> string
(** The full [results/REPORT.md] document: headline table plus the
    per-cell sweep table.  Contains no timestamps, so regeneration with
    the same parameters is byte-identical. *)

val to_json : Scenario.series list -> string
(** [BENCH_report.json]: flat ["<scheme>_fraction" / "_median_s" /
    "_jain"] headline keys plus the full cell list. *)

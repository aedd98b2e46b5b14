(** A deterministic parallel run engine on OCaml 5 domains.

    [map f items] farms independent jobs out to worker domains and returns
    the results {b in submission order}, so parallel output is bit-identical
    to [List.map f items] provided each job is self-contained (builds its
    own {!Sim.t} / {!Rng.t} and touches no cross-run mutable globals — the
    contract every module under [lib/] upholds; see DESIGN.md
    "Determinism contract").

    There is no work stealing: workers pull index-stamped jobs from a
    single queue guarded by a [Mutex]/[Condition] pair and write results
    into a slot keyed by the job's index.  Joining the workers establishes
    the happens-before edge that lets the caller read every slot. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — one worker per available core.
    The spawning domain only blocks in [Domain.join] while the workers
    run, so it needs no core of its own. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item on [jobs] worker domains
    (default {!default_jobs}).  [~jobs:1] (or a singleton/empty list) runs
    sequentially in the calling domain — exactly [List.map f items].

    If any job raises, the first exception (in submission order among those
    that raised) is re-raised in the caller with its original backtrace
    after all workers have stopped; remaining queued jobs are skipped. *)

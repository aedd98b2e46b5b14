(* Event-loop profiler: wall time and event counts bucketed by the
   scheduling-site kind every event carries ([Sim.Kind]), plus named gauges
   (queue depth / occupancy histograms) sampled on a sim-time cadence.

   The wall clock is injected ([Unix.gettimeofday] from drivers) so this
   library stays portable; attaching to a simulator installs a [Sim.probe],
   which observes only and cannot change scheduling order. *)

type gauge = { g_name : string; g_hist : Stats.Histogram.t; g_summary : Stats.Summary.t }

type t = {
  clock : unit -> float;
  counts : int array; (* per Sim.Kind *)
  wall : float array; (* seconds per Sim.Kind *)
  mutable gauges : gauge list; (* reverse creation order *)
  mutable samples : int; (* gauge sampling rounds completed *)
}

let create ~clock () =
  {
    clock;
    counts = Array.make Sim.Kind.count 0;
    wall = Array.make Sim.Kind.count 0.;
    gauges = [];
    samples = 0;
  }

let hit t ~kind ~dt =
  let k = if kind >= 0 && kind < Sim.Kind.count then kind else Sim.Kind.other in
  t.counts.(k) <- t.counts.(k) + 1;
  t.wall.(k) <- t.wall.(k) +. dt

let attach t sim =
  Sim.set_probe sim (Some { Sim.pr_clock = t.clock; pr_hit = (fun ~kind ~dt -> hit t ~kind ~dt) })

let detach sim = Sim.set_probe sim None

let events t ~kind = t.counts.(kind)
let wall_s t ~kind = t.wall.(kind)
let total_events t = Array.fold_left ( + ) 0 t.counts
let total_wall_s t = Array.fold_left ( +. ) 0. t.wall

(* --- gauges ------------------------------------------------------------ *)

(* Queue depths span zero to thousands of packets, so the default shape is
   the log-scale histogram (zero lands in the underflow bucket). *)
let gauge t ~name ~lo ~hi ~bins =
  match List.find_opt (fun g -> g.g_name = name) t.gauges with
  | Some g -> g
  | None ->
      let g =
        {
          g_name = name;
          g_hist = Stats.Histogram.create_log ~lo ~hi ~bins;
          g_summary = Stats.Summary.create ();
        }
      in
      t.gauges <- g :: t.gauges;
      g

let observe g v =
  Stats.Histogram.add g.g_hist v;
  Stats.Summary.add g.g_summary v

let gauges t = List.rev t.gauges
let gauge_name g = g.g_name
let gauge_hist g = g.g_hist
let gauge_summary g = g.g_summary

(* Sample [read] for every named gauge each [period] of sim time, starting
   one period in.  The sampler only reads, and it rides auxiliary events
   ([Sim.schedule_aux]), which never consume a normal sequence number, so
   a gauge-enabled run is bit-identical to an unobserved one (DESIGN.md
   §10). *)
let sample_every t sim ~period reads =
  if period <= 0. then invalid_arg "Profile.sample_every: period must be positive";
  let rec arm () =
    ignore (Sim.schedule_aux ~kind:Sim.Kind.obs sim ~time:(Sim.now sim +. period) tick)
  and tick () =
    List.iter
      (fun (gauge, read) ->
        t.samples <- t.samples + 1;
        observe gauge (read ()))
      reads;
    arm ()
  in
  arm ()

let samples t = t.samples

(* --- rendering --------------------------------------------------------- *)

let kind_rows t =
  let rows = ref [] in
  for k = Sim.Kind.count - 1 downto 0 do
    if t.counts.(k) > 0 then
      rows :=
        (Sim.Kind.name k, t.counts.(k), t.wall.(k), 1e9 *. t.wall.(k) /. float_of_int t.counts.(k))
        :: !rows
  done;
  !rows

(* Footprint gauges: live major-heap words from the GC and the scheduler's
   pending-event count, sampled on the same sim-time cadence as the queue
   gauges.  The scale benchmark's peak-memory figures are the [g_max] of
   these rows, so they flow through the exact snapshot machinery
   (Report.gauge_rows -> Export) as every other number. *)
let memory_gauges t sim ~period =
  let heap = gauge t ~name:"live-heap-words" ~lo:1e4 ~hi:1e10 ~bins:28 in
  let pend = gauge t ~name:"sim-pending-events" ~lo:1. ~hi:1e7 ~bins:28 in
  sample_every t sim ~period
    [
      (heap, fun () -> float_of_int (Gc.quick_stat ()).Gc.heap_words);
      (pend, fun () -> float_of_int (Sim.pending sim));
    ]

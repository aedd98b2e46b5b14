(* Event-loop profiler: wall time and event counts bucketed by the
   scheduling-site kind every event carries ([Sim.Kind]).

   The wall clock is injected ([Unix.gettimeofday] from drivers) so this
   library stays portable; attaching to a simulator installs a [Sim.probe],
   which observes only and cannot change scheduling order. *)

type t = {
  clock : unit -> float;
  counts : int array; (* per Sim.Kind *)
  wall : float array; (* seconds per Sim.Kind *)
}

let create ~clock () =
  { clock; counts = Array.make Sim.Kind.count 0; wall = Array.make Sim.Kind.count 0. }

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

let kind_rows t =
  let rows = ref [] in
  for k = Sim.Kind.count - 1 downto 0 do
    if t.counts.(k) > 0 then
      rows :=
        (Sim.Kind.name k, t.counts.(k), t.wall.(k), 1e9 *. t.wall.(k) /. float_of_int t.counts.(k))
        :: !rows
  done;
  !rows

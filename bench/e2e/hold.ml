(* Hold-model microbenchmark: the cross-check for the scheduler's share of
   the event loop.

   [pending] no-op timers stay pending; each one reschedules itself when it
   fires, after a delay drawn from an exponential whose mean is the
   workload's own mean event lifetime (pending events x simulated seconds /
   events fired, by Little's law).  The queue therefore holds the
   workload's mean pending count at the workload's time density, and the
   loop does nothing but pop, dispatch and push: its ns per event is the
   scheduler cost [engine.sched_ns_per_event] stands for.  One full
   turnover of the pending set runs untimed first. *)

let ns_per_event ~sched ~pending ~mean_delay ~events =
  let pending = max 1 pending in
  let sim = Sim.create ~sched () in
  let rng = Rng.create ~seed:7 in
  let delays = Array.init 4096 (fun _ -> Rng.exponential rng ~mean:mean_delay) in
  let fired = ref 0 and stop_at = ref pending in
  let rec fire () =
    incr fired;
    if !fired = !stop_at then Sim.stop sim;
    ignore (Sim.schedule sim ~delay:delays.(!fired land 4095) fire)
  in
  for i = 1 to pending do
    ignore (Sim.schedule sim ~delay:delays.(i land 4095) fire)
  done;
  Sim.run sim;
  stop_at := !fired + events;
  let t0 = Workloads.wall () in
  Sim.run sim;
  (Workloads.wall () -. t0) *. 1e9 /. float_of_int events

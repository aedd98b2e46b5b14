(* An aggregate flooder: one object stands in for [n] identical CBR
   zombies.  Each member owns a private RNG lane ([Rng.Bank], bit-identical
   to [Rng.lane ~seed i]) and draws exactly what a real [Agents.Flooder]
   with that lane would draw — one phase at creation, one jitter per
   packet — so the emitted (time, member) stream equals [n] real flooders.

   The members are one [Sim] source group: one action for all of them,
   and one unboxed (time, seq, member) entry per member in the simulator's
   source heap.  A member re-arms itself from inside the action, taking
   its key where a real flooder's [Sim.schedule] would take it, so the
   swarm's events keep the keys of [n] per-member timers without a
   closure or an event-heap slot per member. *)

type mode = Coalesced | Independent

type t = {
  sim : Sim.t;
  bank : Rng.Bank.t;
  n : int;
  interval : float;
  stop_at : float;
  emit : member:int -> due:float -> unit;
  mutable live : int;
  mutable sent : int;
}

let packets_sent t = t.sent
let live_members t = t.live

(* Same check a real flooder makes at its fire time: past [stop_at] it
   neither sends nor draws, so the member retires. *)
let fire t member =
  let now = Sim.now t.sim in
  if now < t.stop_at then begin
    t.emit ~member ~due:now;
    t.sent <- t.sent + 1;
    let jitter = 0.95 +. Rng.Bank.float t.bank member 0.1 in
    Sim.rearm t.sim ~delay:(t.interval *. jitter)
  end
  else t.live <- t.live - 1

let start ~sim ~n ~seed ~rate_bps ?(pkt_bytes = 1000) ?(start_at = 0.) ?stop_at ~emit () =
  if n <= 0 then invalid_arg "Swarm.start: n must be positive";
  if rate_bps <= 0. then invalid_arg "Swarm.start: rate must be positive";
  let interval = float_of_int pkt_bytes *. 8. /. rate_bps in
  let stop_at = match stop_at with Some s -> s | None -> infinity in
  let bank = Rng.Bank.create ~seed ~n in
  let t = { sim; bank; n; interval; stop_at; emit; live = n; sent = 0 } in
  let group = Sim.group ~kind:Sim.Kind.agent ~members:n sim (fire t) in
  (* Phases draw and members arm in ascending member order, as [n] real
     flooders constructed in a loop would. *)
  for i = 0 to n - 1 do
    Sim.source_at group ~member:i ~time:(start_at +. Rng.Bank.float bank i interval)
  done;
  t

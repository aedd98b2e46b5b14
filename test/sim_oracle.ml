(* A reference model of [Sim]'s scheduling contract, for differential
   tests: the pending events are a [Map] keyed by [(time, seq)], so firing
   order is the map's order by construction.  Sequence numbers, auxiliary
   keys, [pending] and [events_processed] follow the contract in sim.mli;
   a lane is plain [schedule ~delay], and cancellation removes the binding
   at once. *)

module Key = struct
  type t = float * int

  let compare (t1, s1) (t2, s2) = match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end

module Q = Map.Make (Key)

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable aux_seq : int;
  mutable live : int;
  mutable fired : int;
  mutable queue : (unit -> unit) Q.t;
}

type handle = { sim : t; key : Key.t }

let create () = { clock = 0.; next_seq = 0; aux_seq = -1; live = 0; fired = 0; queue = Q.empty }
let now t = t.clock
let pending t = t.live
let events_processed t = t.fired

let add t ~time ~seq action =
  if not (time >= t.clock) then invalid_arg "Sim_oracle: time in the past or NaN";
  t.queue <- Q.add (time, seq) action t.queue

let take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  seq

let schedule_at t ~time action = add t ~time ~seq:(take_seq t) action
let schedule t ~delay action = schedule_at t ~time:(t.clock +. delay) action

let timer t ~delay action =
  let time = t.clock +. delay and seq = take_seq t in
  add t ~time ~seq action;
  { sim = t; key = (time, seq) }

type lane = { owner : t; delay : float }

let lane t ~delay = { owner = t; delay }
let lane_schedule l action = schedule l.owner ~delay:l.delay action

let schedule_aux t ~time action =
  let seq = t.aux_seq in
  t.aux_seq <- seq - 1;
  t.live <- t.live + 1;
  add t ~time ~seq action

let cancelled h = not (Q.mem h.key h.sim.queue)

let cancel h =
  if not (cancelled h) then begin
    h.sim.queue <- Q.remove h.key h.sim.queue;
    h.sim.live <- h.sim.live - 1
  end

let fire t ((time, _) as key) action =
  t.queue <- Q.remove key t.queue;
  t.clock <- time;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  action ()

let step t =
  match Q.min_binding_opt t.queue with
  | None -> false
  | Some (key, action) ->
      fire t key action;
      true

let rec run ?(until = infinity) t =
  match Q.min_binding_opt t.queue with
  | None -> ()
  | Some (((time, _) as key), action) ->
      if time > until then t.clock <- until
      else begin
        fire t key action;
        run ~until t
      end

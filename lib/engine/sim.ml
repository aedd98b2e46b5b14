(* One event queue: a 4-ary min-heap keyed by (time, seq).

   The sequence number breaks ties in scheduling order so that behaviour
   never depends on heap internals.  Cancellation marks the event and lets
   the queue discard it lazily when it reaches the root, which keeps cancel
   O(1) — important for TCP timers, nearly all of which are cancelled
   rather than fired.

   No event is a heap-allocated record.  In heap order the queue holds
   only unboxed data: each event's [time] in a float array, its [seq] and
   its [slot].  The slot indexes per-event arrays written once at push —
   the action, the profiler kind, and the seq again (so a {!handle} can
   tell whether its slot still holds its event).  Sift-up/down move the
   hole rather than swapping and touch only the three key arrays, so no
   sift level runs the write barrier and nothing calls polymorphic
   compare.  Popped slots go on a stack of ints and are reused
   last-in first-out. *)

(* Scheduling-site tags for the event-loop profiler.  A kind is one int
   per event slot, read only when a probe is attached, so tagging costs
   nothing in normal runs.  The flat enumeration lives here because the
   scheduler is the one module every scheduling site already depends on. *)
module Kind = struct
  let other = 0
  let net_transmit = 1
  let net_deliver = 2
  let net_poll = 3
  let tcp_timer = 4
  let agent = 5
  let obs = 6
  let fault = 7
  let telemetry = 8
  let count = 9

  let name = function
    | 0 -> "other"
    | 1 -> "net.transmit"
    | 2 -> "net.deliver"
    | 3 -> "net.poll"
    | 4 -> "tcp.timer"
    | 5 -> "agent"
    | 6 -> "obs"
    | 7 -> "fault"
    | 8 -> "telemetry"
    | _ -> "?"
end

(* The physical sentinel marking a cancelled event, compared with [==] and
   never called. *)
let cancelled_action () = failwith "Sim: a cancelled event fired"

(* [slot_seq] of a slot whose event has left the queue; no real normal
   (counting up from 0) or auxiliary (counting down from -1) seq reaches it. *)
let vacant = min_int

(* The profiler hook: [pr_clock] supplies wall time (injected so this
   module stays free of [Unix]), [pr_hit] is called after each fired
   action with its kind and wall-clock duration. *)
type probe = { pr_clock : unit -> float; pr_hit : kind:int -> dt:float -> unit }

type sched = Heap | Wheel

type t = {
  (* The heap, in heap order. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  (* Per-slot event data, written at push. *)
  mutable actions : (unit -> unit) array;
  mutable kinds : int array;
  mutable slot_seq : int array; (* the occupant's seq, [vacant] once popped *)
  mutable free : int array; (* popped slots, a stack of [nfree] *)
  mutable nfree : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable aux_seq : int; (* negative, descending: auxiliary (telemetry) events *)
  mutable live : int; (* scheduled and not cancelled *)
  mutable stopping : bool;
  mutable fired : int; (* actions executed since creation *)
  mutable probe : probe option;
  root_rng : Rng.t;
}

type handle = { sim : t; slot : int; seq : int }

(* Small on purpose: most simulators are short-lived sweep cells, and the
   arrays double on demand. *)
let initial_capacity = 32

let create ?(seed = 1) ?sched:_ () =
  let n = initial_capacity in
  {
    times = Array.make n 0.;
    seqs = Array.make n 0;
    slots = Array.make n 0;
    size = 0;
    actions = Array.make n cancelled_action;
    kinds = Array.make n 0;
    slot_seq = Array.make n vacant;
    free = Array.make n 0;
    nfree = 0;
    clock = 0.;
    next_seq = 0;
    aux_seq = -1;
    live = 0;
    stopping = false;
    fired = 0;
    probe = None;
    root_rng = Rng.create ~seed;
  }

let sched _ = Heap
let sched_to_string = function Heap -> "heap" | Wheel -> "wheel"
let now t = t.clock
let rng t = t.root_rng
let pending t = t.live
let events_processed t = t.fired
let set_probe t probe = t.probe <- probe

(* --- The heap ------------------------------------------------------------ *)

let grow t =
  let n = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.actions <- extend t.actions cancelled_action;
  t.kinds <- extend t.kinds 0;
  t.slot_seq <- extend t.slot_seq vacant;
  t.free <- extend t.free 0

(* The sift loops index only heap positions below [size], which never
   exceeds the arrays' length, so they skip the bounds checks. *)
external get : 'a array -> int -> 'a = "%array_unsafe_get"
external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Sift the key just written at heap index [i] towards the root. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = get times i and seq = get seqs i and slot = get slots i in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = get times parent in
    if time < pt || (time = pt && seq < get seqs parent) then begin
      set times !i pt;
      set seqs !i (get seqs parent);
      set slots !i (get slots parent);
      i := parent
    end
    else continue := false
  done;
  set times !i time;
  set seqs !i seq;
  set slots !i slot

(* Queue an event under a key that is already counted in [live]; returns
   its slot.  Inlined, so the time goes straight into the unboxed [times]
   array and [schedule]'s [now + delay] is never boxed. *)
let[@inline] push t ~time ~seq ~kind action =
  if t.size = Array.length t.times then grow t;
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else t.size (* no popped slot: slots [0, size) are all occupied *)
  in
  t.actions.(slot) <- action;
  t.kinds.(slot) <- kind;
  t.slot_seq.(slot) <- seq;
  let i = t.size in
  t.size <- i + 1;
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  sift_up t i;
  slot

(* Remove the root and free its slot.  The slot keeps its action until it
   is reused, so the arrays retain at most the high-water mark of closures
   and never an unbounded history. *)
let pop t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let freed = slots.(0) in
  t.slot_seq.(freed) <- vacant;
  t.free.(t.nfree) <- freed;
  t.nfree <- t.nfree + 1;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the hole down from the root, pulling the earliest of up to four
       children up one level each step; the last key drops into the final
       hole. *)
    let time = get times n and seq = get seqs n and slot = get slots n in
    let i = ref 0 and continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= n then continue := false
      else begin
        let last = if first + 3 < n then first + 3 else n - 1 in
        let best = ref first in
        for c = first + 1 to last do
          let tc = get times c and tb = get times !best in
          if tc < tb || (tc = tb && get seqs c < get seqs !best) then best := c
        done;
        let b = !best in
        let tb = get times b in
        if time < tb || (time = tb && seq < get seqs b) then continue := false
        else begin
          set times !i tb;
          set seqs !i (get seqs b);
          set slots !i (get slots b);
          i := b
        end
      end
    done;
    set times !i time;
    set seqs !i seq;
    set slots !i slot
  end

(* --- Scheduling ------------------------------------------------------------ *)

let bad_time fn t time =
  invalid_arg
    (if Float.is_nan time then Printf.sprintf "Sim.%s: time is NaN" fn
     else Printf.sprintf "Sim.%s: time %g is before now %g" fn time t.clock)

(* [not (time >= clock)] also rejects NaN, which would break heap order. *)
let[@inline] check_time fn t time = if not (time >= t.clock) then bad_time fn t time

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  seq

let schedule_at ?(kind = Kind.other) t ~time action =
  check_time "schedule_at" t time;
  ignore (push t ~time ~seq:(reserve t) ~kind action)

let[@inline] check_delay fn delay =
  if not (delay >= 0.) then invalid_arg (Printf.sprintf "Sim.%s: delay %g is negative or NaN" fn delay)

let schedule ?(kind = Kind.other) t ~delay action =
  check_delay "schedule" delay;
  ignore (push t ~time:(t.clock +. delay) ~seq:(reserve t) ~kind action)

let timer_at ?(kind = Kind.other) t ~time action =
  check_time "timer_at" t time;
  let seq = reserve t in
  { sim = t; slot = push t ~time ~seq ~kind action; seq }

let timer ?(kind = Kind.other) t ~delay action =
  check_delay "timer" delay;
  let seq = reserve t in
  { sim = t; slot = push t ~time:(t.clock +. delay) ~seq ~kind action; seq }

let schedule_reserved ?(kind = Kind.other) t ~time ~seq action =
  check_time "schedule_reserved" t time;
  ignore (push t ~time ~seq ~kind action)

(* Auxiliary events draw from a separate, negative, descending sequence
   counter, so scheduling one never consumes a [next_seq] value — a run
   with read-only auxiliary ticks attached stays bit-identical to the same
   run without them.  At equal time the negative seq sorts before every
   normal event, so a telemetry tick at T observes state with all events
   < T fired and none at T. *)
let schedule_aux ?(kind = Kind.telemetry) t ~time action =
  check_time "schedule_aux" t time;
  let seq = t.aux_seq in
  t.aux_seq <- seq - 1;
  t.live <- t.live + 1;
  ignore (push t ~time ~seq ~kind action)

let cancelled h = h.sim.slot_seq.(h.slot) <> h.seq || h.sim.actions.(h.slot) == cancelled_action

let cancel h =
  if not (cancelled h) then begin
    h.sim.actions.(h.slot) <- cancelled_action;
    h.sim.live <- h.sim.live - 1
  end

(* --- The loop -------------------------------------------------------------- *)

let stop t = t.stopping <- true

(* Fire the root event, whose slot and (uncancelled) action the caller has
   read.  The slot is freed before the action runs, so the action may
   reuse it; the probe's kind is read before the action runs. *)
let[@inline] fire t slot action =
  t.clock <- t.times.(0);
  pop t;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  match t.probe with
  | None -> action ()
  | Some pr ->
      let kind = t.kinds.(slot) in
      let t0 = pr.pr_clock () in
      action ();
      pr.pr_hit ~kind ~dt:(pr.pr_clock () -. t0)

let rec step t =
  t.size > 0
  &&
  let slot = t.slots.(0) in
  let action = t.actions.(slot) in
  if action == cancelled_action then begin
    pop t;
    step t
  end
  else begin
    fire t slot action;
    true
  end

let run ?until t =
  t.stopping <- false;
  let horizon = match until with Some h -> h | None -> infinity in
  let rec loop () =
    if (not t.stopping) && t.size > 0 then begin
      let slot = t.slots.(0) in
      let action = t.actions.(slot) in
      if action == cancelled_action then begin
        pop t;
        loop ()
      end
      else if t.times.(0) > horizon then t.clock <- horizon
      else begin
        fire t slot action;
        loop ()
      end
    end
  in
  loop ()

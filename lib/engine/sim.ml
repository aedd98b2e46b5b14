(* One event queue: a binary min-heap of one-off events keyed by (time,
   seq), merged at fire time with the heads of the constant-delay lanes.

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
   last-in first-out.

   A constant-delay lane is a FIFO of events that each fire exactly the
   lane's [delay] after they were scheduled.  Its keys are nondecreasing
   (the clock never goes back), so its head is its earliest event and the
   lane never enters the event heap.  The non-empty lanes sit in a second
   binary heap, keyed by their heads' (time, seq) in the same unboxed
   layout, with the lane's id in place of the slot: a lane enters it when
   it turns non-empty, and firing a head re-keys the root or removes it.
   The loop fires whichever of the two roots comes first.  [Net] puts
   every link delivery on a lane per distinct link delay and every
   transmit completion on a lane per distinct serialization time, a few
   dozen lanes at most, so an event on a lane costs a ring write, a ring
   read and a sift through that small heap (under one level on average)
   instead of a push and pop through the event heap. *)

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
  (* The heap of one-off events, in heap order. *)
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
  mutable nslots : int; (* slots ever handed out: [0, nslots) *)
  mutable lanes : lane array; (* every lane made, by id: the first [nlanes] *)
  mutable nlanes : int;
  (* The lane heap: the non-empty lanes by their heads' keys, in heap
     order; [lh_ids] holds lane ids.  Its arrays have [lanes]' length. *)
  mutable lh_times : float array;
  mutable lh_seqs : int array;
  mutable lh_ids : int array;
  mutable lh_size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable aux_seq : int; (* negative, descending: auxiliary (telemetry) events *)
  mutable live : int; (* scheduled and not cancelled *)
  mutable stopping : bool;
  mutable fired : int; (* actions executed since creation *)
  mutable probe : probe option;
  root_rng : Rng.t;
}

(* Entry [i] of a lane's ring is at [(head + i) land (capacity - 1)]; its
   key is [(l_times, l_seqs)] and its callback [l_actions].  Like a popped
   slot, a fired entry keeps its callback until the ring reuses it. *)
and lane = {
  owner : t;
  id : int; (* index in [owner.lanes] *)
  delay : float;
  lkind : int;
  mutable l_times : float array; (* capacity 0 or a power of two *)
  mutable l_seqs : int array;
  mutable l_actions : (unit -> unit) array;
  mutable l_head : int;
  mutable l_len : int;
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
    nslots = 0;
    lanes = [||];
    nlanes = 0;
    lh_times = [||];
    lh_seqs = [||];
    lh_ids = [||];
    lh_size = 0;
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

(* --- The heaps ------------------------------------------------------------ *)

(* A heap is indexed only at positions below its size, which never
   exceeds its arrays' length, the per-slot arrays only at slots below
   [nslots], and a lane's ring only at its head while it is non-empty, so
   these accesses skip the bounds checks. *)
external get : 'a array -> int -> 'a = "%array_unsafe_get"
external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Both heaps share these two sifts.  A heap is three arrays in heap
   order: [times] and [seqs] hold the keys, [ids] the event slot or lane
   id.  The key is read from the arrays, never passed in, so the float is
   never boxed. *)

(* Sift the entry just written at index [i] towards the root. *)
let sift_up (times : float array) (seqs : int array) (ids : int array) i =
  let time = get times i and seq = get seqs i and id = get ids i in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = get times parent in
    if time < pt || (time = pt && seq < get seqs parent) then begin
      set times !i pt;
      set seqs !i (get seqs parent);
      set ids !i (get ids parent);
      i := parent
    end
    else continue := false
  done;
  set times !i time;
  set seqs !i seq;
  set ids !i id

(* Sift the root of a heap of [n] entries down, pulling the earlier of
   the two children up one level each step. *)
let sift_down (times : float array) (seqs : int array) (ids : int array) n =
  let time = get times 0 and seq = get seqs 0 and id = get ids 0 in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let b =
        if r < n then
          let tl = get times l and tr = get times r in
          if tr < tl || (tr = tl && get seqs r < get seqs l) then r else l
        else l
      in
      let tb = get times b in
      if time < tb || (time = tb && seq < get seqs b) then continue := false
      else begin
        set times !i tb;
        set seqs !i (get seqs b);
        set ids !i (get ids b);
        i := b
      end
    end
  done;
  set times !i time;
  set seqs !i seq;
  set ids !i id

(* Move the last of [n + 1] entries to the root and sift it down. *)
let[@inline] refill_root (times : float array) (seqs : int array) (ids : int array) n =
  if n > 0 then begin
    set times 0 (get times n);
    set seqs 0 (get seqs n);
    set ids 0 (get ids n);
    sift_down times seqs ids n
  end

(* --- The event heap ------------------------------------------------------ *)

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

(* Queue an event under a key that is already counted in [live]; returns
   its slot.  Every slot in use holds a distinct heap entry, so [nslots]
   never outgrows the per-slot arrays, which grow with the heap's.
   Inlined, so the time goes straight into the unboxed [times] array and
   [schedule]'s [now + delay] is never boxed. *)
let[@inline] push t ~time ~seq ~kind action =
  if t.size = Array.length t.times then grow t;
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      (* no popped slot: slots [0, nslots) are all occupied *)
      let s = t.nslots in
      t.nslots <- s + 1;
      s
    end
  in
  t.actions.(slot) <- action;
  t.kinds.(slot) <- kind;
  t.slot_seq.(slot) <- seq;
  let i = t.size in
  t.size <- i + 1;
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  sift_up t.times t.seqs t.slots i;
  slot

(* Remove the root and free its slot.  The slot keeps its action until it
   is reused, so the arrays retain at most the high-water mark of closures
   and never an unbounded history. *)
let pop t =
  let freed = get t.slots 0 in
  set t.slot_seq freed vacant;
  set t.free t.nfree freed;
  t.nfree <- t.nfree + 1;
  let n = t.size - 1 in
  t.size <- n;
  refill_root t.times t.seqs t.slots n

(* --- Scheduling ------------------------------------------------------------ *)

let bad_time fn t time =
  invalid_arg
    (if Float.is_nan time then Printf.sprintf "Sim.%s: time is NaN" fn
     else Printf.sprintf "Sim.%s: time %g is before now %g" fn time t.clock)

(* [not (time >= clock)] also rejects NaN, which would break heap order. *)
let[@inline] check_time fn t time = if not (time >= t.clock) then bad_time fn t time

(* Take the next normal seq for an event counted in [live]. *)
let[@inline] take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  seq

let schedule_at ?(kind = Kind.other) t ~time action =
  check_time "schedule_at" t time;
  ignore (push t ~time ~seq:(take_seq t) ~kind action)

let[@inline] check_delay fn delay =
  if not (delay >= 0.) then invalid_arg (Printf.sprintf "Sim.%s: delay %g is negative or NaN" fn delay)

let schedule ?(kind = Kind.other) t ~delay action =
  check_delay "schedule" delay;
  ignore (push t ~time:(t.clock +. delay) ~seq:(take_seq t) ~kind action)

let timer_at ?(kind = Kind.other) t ~time action =
  check_time "timer_at" t time;
  let seq = take_seq t in
  { sim = t; slot = push t ~time ~seq ~kind action; seq }

let timer ?(kind = Kind.other) t ~delay action =
  check_delay "timer" delay;
  let seq = take_seq t in
  { sim = t; slot = push t ~time:(t.clock +. delay) ~seq ~kind action; seq }

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

(* --- Lanes ----------------------------------------------------------------- *)

let lane ?(kind = Kind.other) t ~delay =
  check_delay "lane" delay;
  let ln =
    {
      owner = t;
      id = t.nlanes;
      delay;
      lkind = kind;
      l_times = [||];
      l_seqs = [||];
      l_actions = [||];
      l_head = 0;
      l_len = 0;
    }
  in
  let n = t.nlanes in
  if n = Array.length t.lanes then begin
    let cap = max 4 (2 * n) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.lanes <- extend t.lanes ln;
    t.lh_times <- extend t.lh_times 0.;
    t.lh_seqs <- extend t.lh_seqs 0;
    t.lh_ids <- extend t.lh_ids 0
  end;
  t.lanes.(n) <- ln;
  t.nlanes <- n + 1;
  ln

let lane_delay ln = ln.delay
let lane_count t = t.nlanes

let lane_grow ln =
  let cap = Array.length ln.l_actions in
  let ncap = max 16 (2 * cap) in
  let times = Array.make ncap 0. and seqs = Array.make ncap 0 in
  let actions = Array.make ncap cancelled_action in
  for k = 0 to ln.l_len - 1 do
    let j = (ln.l_head + k) land (cap - 1) in
    times.(k) <- ln.l_times.(j);
    seqs.(k) <- ln.l_seqs.(j);
    actions.(k) <- ln.l_actions.(j)
  done;
  ln.l_times <- times;
  ln.l_seqs <- seqs;
  ln.l_actions <- actions;
  ln.l_head <- 0

(* The key is exactly [schedule ~delay]'s: the next normal seq and
   [now + delay].  A lane that was empty enters the lane heap under its
   new head's key; the lane heap has room, since it holds each lane at
   most once. *)
let lane_schedule ln action =
  let t = ln.owner in
  let seq = take_seq t in
  let time = t.clock +. ln.delay in
  let len = ln.l_len in
  if len = Array.length ln.l_actions then lane_grow ln;
  let i = (ln.l_head + len) land (Array.length ln.l_actions - 1) in
  ln.l_times.(i) <- time;
  ln.l_seqs.(i) <- seq;
  ln.l_actions.(i) <- action;
  ln.l_len <- len + 1;
  if len = 0 then begin
    let k = t.lh_size in
    t.lh_size <- k + 1;
    set t.lh_times k time;
    set t.lh_seqs k seq;
    set t.lh_ids k ln.id;
    sift_up t.lh_times t.lh_seqs t.lh_ids k
  end

(* --- Cancellation ---------------------------------------------------------- *)

let cancelled h = h.sim.slot_seq.(h.slot) <> h.seq || h.sim.actions.(h.slot) == cancelled_action

let cancel h =
  if not (cancelled h) then begin
    h.sim.actions.(h.slot) <- cancelled_action;
    h.sim.live <- h.sim.live - 1
  end

(* --- The loop -------------------------------------------------------------- *)

let stop t = t.stopping <- true

let probed pr ~kind action =
  let t0 = pr.pr_clock () in
  action ();
  pr.pr_hit ~kind ~dt:(pr.pr_clock () -. t0)

(* Fire the root event, whose slot holds an uncancelled action.  The slot
   is freed before the action runs, so the action may reuse it. *)
let[@inline] fire t slot =
  let action = get t.actions slot in
  t.clock <- get t.times 0;
  pop t;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  match t.probe with None -> action () | Some pr -> probed pr ~kind:t.kinds.(slot) action

(* Fire the head of the lane at the lane heap's root, after re-keying
   the root with the lane's next entry or, when that was its last,
   removing it, so the action may schedule on any lane. *)
let fire_lane t =
  let ln = get t.lanes (get t.lh_ids 0) in
  let i = ln.l_head in
  let action = get ln.l_actions i in
  t.clock <- get ln.l_times i;
  let h = (i + 1) land (Array.length ln.l_actions - 1) in
  ln.l_head <- h;
  let len = ln.l_len - 1 in
  ln.l_len <- len;
  if len > 0 then begin
    set t.lh_times 0 (get ln.l_times h);
    set t.lh_seqs 0 (get ln.l_seqs h);
    sift_down t.lh_times t.lh_seqs t.lh_ids t.lh_size
  end
  else begin
    let n = t.lh_size - 1 in
    t.lh_size <- n;
    refill_root t.lh_times t.lh_seqs t.lh_ids n
  end;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  match t.probe with None -> action () | Some pr -> probed pr ~kind:ln.lkind action

(* What fires next: [event_root] for the event heap's root, [lane_root]
   for the head of the lane at the lane heap's root, [none] when nothing
   is queued.  Cancelled events are dropped from the event root first
   (lanes hold none), then the two roots are compared by (time, seq),
   spelled out: a helper taking the times as arguments would box them. *)
let event_root = 0
let lane_root = 1
let none = 2

let rec next t =
  if t.size > 0 && get t.actions (get t.slots 0) == cancelled_action then begin
    pop t;
    next t
  end
  else if t.lh_size = 0 then if t.size > 0 then event_root else none
  else if t.size = 0 then lane_root
  else begin
    let tl = get t.lh_times 0 and tr = get t.times 0 in
    if tl < tr || (tl = tr && get t.lh_seqs 0 < get t.seqs 0) then lane_root else event_root
  end

let step t =
  let k = next t in
  if k = event_root then fire t (get t.slots 0) else if k = lane_root then fire_lane t;
  k <> none

let run ?until t =
  t.stopping <- false;
  let horizon = match until with Some h -> h | None -> infinity in
  let rec loop () =
    if not t.stopping then begin
      let k = next t in
      if k = event_root then begin
        if get t.times 0 > horizon then t.clock <- horizon
        else begin
          fire t (get t.slots 0);
          loop ()
        end
      end
      else if k = lane_root then begin
        if get t.lh_times 0 > horizon then t.clock <- horizon
        else begin
          fire_lane t;
          loop ()
        end
      end
    end
  in
  loop ()

(* Two interchangeable event queues behind one scheduler API.

   The reference queue is a 4-ary min-heap of events keyed by (time, seq).
   The sequence number breaks ties in scheduling order so that behaviour
   never depends on heap internals.  Cancellation marks the event and lets
   the queue pop it lazily, which keeps cancel O(1) — important for TCP
   timers, nearly all of which are cancelled rather than fired.

   The heap keys live in parallel unboxed [times]/[seqs] arrays next to the
   event array: a 4-ary heap halves the tree depth of the old binary heap,
   and comparing cached keys avoids chasing an event pointer and unboxing
   its float field on every comparison — together the hottest costs of the
   event loop.  Sift-up/down move the hole rather than swapping, so each
   level costs three array stores instead of nine.

   The second queue is a hierarchical timing wheel for runs whose pending
   set explodes (10^5-10^6 concurrent timers): 4 levels of 256 slots at
   1 us resolution, so insert is O(1) and pop is amortized O(1) instead of
   O(log n).  Events whose integer tick has been reached are promoted into
   a small (time, seq) heap that resolves sub-tick time differences and
   same-time ties, which makes the wheel's firing order *identical* to the
   reference heap's — the differential property test in the suite holds
   the two together, and fig8 stays byte-identical under either queue. *)

(* Scheduling-site tags for the event-loop profiler.  A kind is carried by
   every event (one immediate int; the record is heap-allocated anyway) and
   only ever read when a probe is attached, so tagging costs nothing in
   normal runs.  The flat enumeration lives here because the scheduler is
   the one module every scheduling site already depends on. *)
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

type event = {
  time : float;
  seq : int;
  kind : int; (* a [Kind] tag, read only by the profiler probe *)
  mutable action : unit -> unit; (* [cancelled_action] once cancelled or fired *)
  live : int ref; (* the owning simulator's count of pending events *)
}

(* The physical sentinel marking a cancelled or fired event, compared with
   [==] and never called.  A plain closure field instead of an [option]
   saves the [Some] box on every scheduled event. *)
let cancelled_action () = failwith "Sim: a cancelled event fired"

type handle = event

(* The profiler hook: [pr_clock] supplies wall time (injected so this
   module stays free of [Unix]), [pr_hit] is called after each fired
   action with its kind and wall-clock duration. *)
type probe = { pr_clock : unit -> float; pr_hit : kind:int -> dt:float -> unit }

type sched = Heap | Wheel

let dummy = { time = neg_infinity; seq = -1; kind = 0; action = cancelled_action; live = ref 0 }
let initial_capacity = 256

(* --- The 4-ary (time, seq) heap ------------------------------------------ *)

type heap = {
  mutable evs : event array;
  mutable times : float array; (* cached evs.(i).time (unboxed) *)
  mutable seqs : int array; (* cached evs.(i).seq *)
  mutable size : int;
}

let heap_create capacity =
  {
    evs = Array.make capacity dummy;
    times = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    size = 0;
  }

let heap_grow h =
  let cap = 2 * Array.length h.evs in
  let evs = Array.make cap dummy in
  let times = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  Array.blit h.evs 0 evs 0 h.size;
  Array.blit h.times 0 times 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  h.evs <- evs;
  h.times <- times;
  h.seqs <- seqs

(* Lexicographic (time, seq) against the cached keys at heap slot [j]. *)
let[@inline] key_earlier h ~time ~seq j =
  time < h.times.(j) || (time = h.times.(j) && seq < h.seqs.(j))

let[@inline] set_slot h i ev ~time ~seq =
  h.evs.(i) <- ev;
  h.times.(i) <- time;
  h.seqs.(i) <- seq

let heap_push h ev =
  if h.size = Array.length h.evs then heap_grow h;
  let time = ev.time and seq = ev.seq in
  (* Sift up, moving the hole towards the root. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if key_earlier h ~time ~seq parent then begin
      set_slot h !i h.evs.(parent) ~time:h.times.(parent) ~seq:h.seqs.(parent);
      i := parent
    end
    else continue := false
  done;
  set_slot h !i ev ~time ~seq

let heap_pop h =
  assert (h.size > 0);
  let top = h.evs.(0) in
  h.size <- h.size - 1;
  let last = h.evs.(h.size) in
  let time = h.times.(h.size) and seq = h.seqs.(h.size) in
  h.evs.(h.size) <- dummy;
  if h.size > 0 then begin
    (* Sift the hole down from the root, pulling the earliest of up to
       four children up one level each step; [last] drops into the final
       hole. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= h.size then continue := false
      else begin
        let stop = min (first + 4) h.size in
        let best = ref first in
        for c = first + 1 to stop - 1 do
          if key_earlier h ~time:h.times.(c) ~seq:h.seqs.(c) !best then best := c
        done;
        (* [last] belongs above the earliest child: hole found. *)
        if key_earlier h ~time ~seq !best then continue := false
        else begin
          set_slot h !i h.evs.(!best) ~time:h.times.(!best) ~seq:h.seqs.(!best);
          i := !best
        end
      end
    done;
    set_slot h !i last ~time ~seq
  end;
  top

(* --- The hierarchical timing wheel ---------------------------------------- *)

(* Integer ticks at 1 us resolution.  [int_of_float] truncates towards zero
   and times are nonnegative, so the mapping is a monotone floor: distinct
   ticks order exactly like the times they quantize, and events that share
   a tick are ordered by the promotion heap on their exact (time, seq).
   Times past the representable horizon (including infinity) clamp to
   [max_int] and live in the overflow list until the wheel catches up. *)
let tick_rate = 1e6
let tick_horizon = 4.0e12 (* seconds; * 1e6 stays well below max_int *)
let[@inline] tick_of_time time = if time >= tick_horizon then max_int else int_of_float (time *. tick_rate)

let slot_bits = 8
let slots_per_level = 256 (* 1 lsl slot_bits *)
let wheel_levels = 4 (* covers 2^32 us ~ 71.6 min beyond [cur_tick]; rest overflows *)

(* A growable event vector — one per wheel slot, plus the overflow. *)
type svec = { mutable sv : event array; mutable sn : int }

let svec_create () = { sv = [||]; sn = 0 }

(* Slot arrays are pooled in per-wheel size-classed free lists: without
   this, each of the 1024 slots (and the overflow) retains its high-water
   capacity forever, and at 10^5-10^6 pending events the sum of those
   high-water marks dwarfs the live working set.  Cascading a slot returns
   its array to the pool; the next slot that grows takes it back, so the
   wheel's peak live heap tracks the peak pending set, not history.
   Capacities are always 8 * 2^c (growth doubles from 8), so the class
   index is exact. *)
let pool_classes = 24

type wheel = {
  mutable cur_tick : int;
      (* Every event with tick <= cur_tick has been promoted into [cur];
         every slot "before" cur_tick at every level is empty. *)
  cur : heap; (* promotion heap: exact (time, seq) order within reached ticks *)
  levels : svec array array; (* [wheel_levels][slots_per_level] *)
  level_count : int array; (* events held per level, to skip empty levels *)
  overflow : svec; (* tick beyond all levels' span; reseeded when reached *)
  mutable total : int; (* physical events anywhere in the structure *)
  free : event array list array; (* pooled slot arrays, by size class *)
}

let wheel_create () =
  {
    cur_tick = 0;
    cur = heap_create initial_capacity;
    levels = Array.init wheel_levels (fun _ -> Array.init slots_per_level (fun _ -> svec_create ()));
    level_count = Array.make wheel_levels 0;
    overflow = svec_create ();
    total = 0;
    free = Array.make pool_classes [];
  }

(* capacity 8 * 2^c -> class c *)
let[@inline] svec_class cap =
  let c = ref 0 and x = ref 8 in
  while !x < cap do
    x := !x lsl 1;
    incr c
  done;
  !c

let svec_alloc w cap =
  let c = svec_class cap in
  if c < pool_classes then
    match w.free.(c) with
    | a :: rest ->
        w.free.(c) <- rest;
        a
    | [] -> Array.make cap dummy
  else Array.make cap dummy

(* [a] must be all-[dummy] so pooled arrays never retain events. *)
let svec_release w a =
  let cap = Array.length a in
  if cap > 0 then begin
    let c = svec_class cap in
    if c < pool_classes then w.free.(c) <- a :: w.free.(c)
  end

let wheel_push w v ev =
  if v.sn = Array.length v.sv then begin
    let cap = if v.sn = 0 then 8 else 2 * v.sn in
    let a = svec_alloc w cap in
    Array.blit v.sv 0 a 0 v.sn;
    if v.sn > 0 then begin
      Array.fill v.sv 0 v.sn dummy;
      svec_release w v.sv
    end;
    v.sv <- a
  end;
  v.sv.(v.sn) <- ev;
  v.sn <- v.sn + 1

(* File an event by its tick, relative to [cur_tick].  Level l holds events
   whose tick agrees with cur_tick on all bits above 8*(l+1) — so a slot
   only ever contains ticks from the window the wheel is currently
   sweeping, and cascading a level-l slot re-files its events strictly
   below l (or straight into [cur]).  Does not touch [total]. *)
let place w ev =
  let tick = tick_of_time ev.time in
  if tick <= w.cur_tick then heap_push w.cur ev
  else begin
    let diff = tick lxor w.cur_tick in
    if diff lsr (slot_bits * wheel_levels) <> 0 then wheel_push w w.overflow ev
    else begin
      let l =
        if diff lsr slot_bits = 0 then 0
        else if diff lsr (2 * slot_bits) = 0 then 1
        else if diff lsr (3 * slot_bits) = 0 then 2
        else 3
      in
      wheel_push w w.levels.(l).((tick lsr (slot_bits * l)) land (slots_per_level - 1)) ev;
      w.level_count.(l) <- w.level_count.(l) + 1
    end
  end

let wheel_add w ev =
  w.total <- w.total + 1;
  place w ev

(* Empty level-l slot j into the structure below it.  For l = 0 every
   event lands in [cur] (a level-0 slot holds exactly one tick); higher
   slots re-file at levels < l. *)
let cascade w l j =
  let v = w.levels.(l).(j) in
  let n = v.sn in
  w.level_count.(l) <- w.level_count.(l) - n;
  v.sn <- 0;
  (* Detach the slot's array before re-filing so [place] can never push
     into it mid-iteration, then return it to the pool fully dummied. *)
  let a = v.sv in
  v.sv <- [||];
  for i = 0 to n - 1 do
    let ev = a.(i) in
    a.(i) <- dummy;
    place w ev
  done;
  svec_release w a

(* Move [cur_tick] forward to the next occupied slot and promote it,
   repeating until the promotion heap is nonempty (cascading a coarse slot
   may land everything at a finer level first).  Caller guarantees there
   is an event somewhere ([total > cur.size]). *)
let advance w =
  let rec go () =
    let found = ref false in
    let l = ref 0 in
    while (not !found) && !l < wheel_levels do
      if w.level_count.(!l) > 0 then begin
        let lvl = w.levels.(!l) in
        let shift = slot_bits * !l in
        (* Slots at or before cur_tick's index are already empty (the
           invariant above), so scan strictly beyond it. *)
        let j = ref (((w.cur_tick lsr shift) land (slots_per_level - 1)) + 1) in
        while (not !found) && !j < slots_per_level do
          if lvl.(!j).sn > 0 then begin
            let above = shift + slot_bits in
            w.cur_tick <- ((w.cur_tick lsr above) lsl above) lor (!j lsl shift);
            cascade w !l !j;
            found := true
          end
          else incr j
        done
      end;
      if not !found then incr l
    done;
    if !found then begin
      if w.cur.size = 0 then go ()
    end
    else if w.overflow.sn > 0 then begin
      (* Jump the wheel to the overflow's earliest tick and re-file; the
         minimum lands in [cur] immediately, stragglers past the new span
         simply overflow again (into a fresh array — the old one is
         detached first, then pooled). *)
      let n = w.overflow.sn in
      let a = w.overflow.sv in
      let min_tick = ref max_int in
      for i = 0 to n - 1 do
        let tick = tick_of_time a.(i).time in
        if tick < !min_tick then min_tick := tick
      done;
      w.overflow.sn <- 0;
      w.overflow.sv <- [||];
      w.cur_tick <- !min_tick;
      for i = 0 to n - 1 do
        let ev = a.(i) in
        a.(i) <- dummy;
        place w ev
      done;
      svec_release w a;
      if w.cur.size = 0 then go ()
    end
  in
  go ()

(* --- The simulator --------------------------------------------------------- *)

type queue = Q_heap of heap | Q_wheel of wheel

type t = {
  queue : queue;
  mutable clock : float;
  mutable next_seq : int;
  mutable aux_seq : int; (* negative, descending: auxiliary (telemetry) events *)
  live : int ref; (* scheduled and not cancelled *)
  mutable stopping : bool;
  mutable fired : int; (* actions executed since creation *)
  mutable probe : probe option;
  root_rng : Rng.t;
}

let create ?(seed = 1) ?(sched = Heap) () =
  {
    queue =
      (match sched with
      | Heap -> Q_heap (heap_create initial_capacity)
      | Wheel -> Q_wheel (wheel_create ()));
    clock = 0.;
    next_seq = 0;
    aux_seq = -1;
    live = ref 0;
    stopping = false;
    fired = 0;
    probe = None;
    root_rng = Rng.create ~seed;
  }

let sched t = match t.queue with Q_heap _ -> Heap | Q_wheel _ -> Wheel

let sched_of_string = function
  | "heap" -> Ok Heap
  | "wheel" -> Ok Wheel
  | s -> Error (Printf.sprintf "unknown scheduler %S (expected \"heap\" or \"wheel\")" s)

let sched_to_string = function Heap -> "heap" | Wheel -> "wheel"

(* The crossover is insensitive within an order of magnitude: below it the
   heap's cache-resident sift beats the wheel's bookkeeping, above it the
   O(log n) comparisons dominate.  Measured in BENCH_scale.json. *)
let recommended_sched ~expected_pending = if expected_pending >= 8192 then Wheel else Heap

let now t = t.clock
let rng t = t.root_rng
let pending t = !(t.live)
let events_processed t = t.fired
let set_probe t probe = t.probe <- probe

let in_the_past fn t time =
  invalid_arg (Printf.sprintf "Sim.%s: time %g is before now %g" fn time t.clock)

let[@inline] check_time fn t time = if time < t.clock then in_the_past fn t time

(* Queue an event under a key that is already counted in [live]. *)
let[@inline] push t ~time ~seq ~kind action =
  let ev = { time; seq; kind; action; live = t.live } in
  (match t.queue with Q_heap h -> heap_push h ev | Q_wheel w -> wheel_add w ev);
  ev

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  incr t.live;
  seq

let schedule_at ?(kind = Kind.other) t ~time action =
  check_time "schedule_at" t time;
  push t ~time ~seq:(reserve t) ~kind action

let schedule_reserved ?(kind = Kind.other) t ~time ~seq action =
  check_time "schedule_reserved" t time;
  push t ~time ~seq ~kind action

let schedule ?kind t ~delay action =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  schedule_at ?kind t ~time:(t.clock +. delay) action

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
  incr t.live;
  push t ~time ~seq ~kind action

let cancelled ev = ev.action == cancelled_action

let cancel ev =
  if not (cancelled ev) then begin
    ev.action <- cancelled_action;
    decr ev.live
  end

let stop t = t.stopping <- true

let[@inline] fire t ev action =
  ev.action <- cancelled_action;
  decr t.live;
  t.clock <- ev.time;
  t.fired <- t.fired + 1;
  match t.probe with
  | None -> action ()
  | Some pr ->
      let t0 = pr.pr_clock () in
      action ();
      pr.pr_hit ~kind:ev.kind ~dt:(pr.pr_clock () -. t0)

(* The earliest uncancelled event, discarded-in-place cancellations and
   all, or [None] on an empty queue.  For the wheel this may advance
   [cur_tick] — safe, because late arrivals at or before a reached tick
   go straight to the promotion heap. *)
let head_live t =
  match t.queue with
  | Q_heap h ->
      let rec go () =
        if h.size = 0 then None
        else
          let top = h.evs.(0) in
          if cancelled top then begin
            ignore (heap_pop h);
            go ()
          end
          else Some top
      in
      go ()
  | Q_wheel w ->
      let rec go () =
        if w.total = 0 then None
        else begin
          if w.cur.size = 0 then advance w;
          let top = w.cur.evs.(0) in
          if cancelled top then begin
            w.total <- w.total - 1;
            ignore (heap_pop w.cur);
            go ()
          end
          else Some top
        end
      in
      go ()

let step t =
  match head_live t with
  | None -> false
  | Some ev ->
      (match t.queue with
      | Q_heap h -> ignore (heap_pop h)
      | Q_wheel w ->
          w.total <- w.total - 1;
          ignore (heap_pop w.cur));
      fire t ev ev.action;
      true

let run ?until t =
  t.stopping <- false;
  let horizon = match until with Some h -> h | None -> infinity in
  match t.queue with
  | Q_heap h ->
      (* The specialised loop keeps the reference queue exactly as fast as
         before the wheel existed: peek the root, pop, fire. *)
      let rec loop () =
        if t.stopping then ()
        else if h.size = 0 then ()
        else begin
          let top = h.evs.(0) in
          let action = top.action in
          if action == cancelled_action then begin
            ignore (heap_pop h);
            loop ()
          end
          else if h.times.(0) > horizon then t.clock <- horizon
          else begin
            ignore (heap_pop h);
            fire t top action;
            loop ()
          end
        end
      in
      loop ()
  | Q_wheel w ->
      let rec loop () =
        if t.stopping then ()
        else if w.total = 0 then ()
        else begin
          if w.cur.size = 0 then advance w;
          let top = w.cur.evs.(0) in
          let action = top.action in
          if action == cancelled_action then begin
            w.total <- w.total - 1;
            ignore (heap_pop w.cur);
            loop ()
          end
          else if top.time > horizon then t.clock <- horizon
          else begin
            w.total <- w.total - 1;
            ignore (heap_pop w.cur);
            fire t top action;
            loop ()
          end
        end
      in
      loop ()

(* Span recorder for the traced repeat.

   Every span is recorded from the benchmark's own code, around calls into
   a layer's public entry points: the simulator's profiler probe brackets
   each fired event action, the wrapping scheme factory brackets router
   handlers and endpoint closures.  Spans nest on a stack; closing one
   charges its duration to its parent's child time, so a span's self time
   is its duration minus the part its children cover, and the self times
   of everything under an event add up to that event's duration.

   Aggregates (count, inclusive total, self) are kept online per span
   name.  The last [ring_capacity] raw spans are kept in preallocated
   arrays and written as JSONL at the end; all spans of one packet carry
   its id, and every span names its parent's id.  Nothing on the span
   path allocates. *)

let ring_capacity = 65_536

(* Span names.  Event spans are named by their [Sim.Kind] tag and take
   ids [0 .. Sim.Kind.count - 1]; the layer spans follow. *)
let tva_router = Sim.Kind.count
let siff_router = Sim.Kind.count + 1
let netfence_router = Sim.Kind.count + 2
let baseline_router = Sim.Kind.count + 3
let tcp_rx = Sim.Kind.count + 4
let endpoint_segment = Sim.Kind.count + 5
let endpoint_flood = Sim.Kind.count + 6
let name_count = Sim.Kind.count + 7

let name id =
  if id < Sim.Kind.count then Sim.Kind.name id
  else
    match id - Sim.Kind.count with
    | 0 -> "tva.router"
    | 1 -> "siff.router"
    | 2 -> "netfence.router"
    | 3 -> "baseline.router"
    | 4 -> "tcp.rx"
    | 5 -> "workload.endpoint.segment"
    | _ -> "workload.endpoint.flood"

let max_depth = 64

type t = {
  (* open spans, innermost at [depth - 1] *)
  st_name : int array;
  st_start : float array;
  st_child : float array;
  st_id : int array;
  st_pkt : int array;
  mutable depth : int;
  mutable next_id : int;
  (* per-name aggregates, ns *)
  count : int array;
  total : float array;
  self : float array;
  (* raw-span ring *)
  r_name : int array;
  r_start : float array;
  r_end : float array;
  r_id : int array;
  r_parent : int array;
  r_pkt : int array;
  mutable recorded : int;
  (* event-loop probe state *)
  mutable ev_open : bool;
  mutable ev_end : float;
  mutable events : int;
  mutable event_ns : float;  (** summed duration of every fired action *)
  mutable pending_sum : float;
}

let create () =
  {
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0.;
    st_child = Array.make max_depth 0.;
    st_id = Array.make max_depth 0;
    st_pkt = Array.make max_depth (-1);
    depth = 0;
    next_id = 0;
    count = Array.make name_count 0;
    total = Array.make name_count 0.;
    self = Array.make name_count 0.;
    r_name = Array.make ring_capacity 0;
    r_start = Array.make ring_capacity 0.;
    r_end = Array.make ring_capacity 0.;
    r_id = Array.make ring_capacity 0;
    r_parent = Array.make ring_capacity 0;
    r_pkt = Array.make ring_capacity 0;
    recorded = 0;
    ev_open = false;
    ev_end = 0.;
    events = 0;
    event_ns = 0.;
    pending_sum = 0.;
  }

let[@inline] now () = Int64.to_float (Monotonic_clock.now ())

let[@inline] enter t ~name ~pkt =
  let d = t.depth in
  t.st_name.(d) <- name;
  t.st_start.(d) <- now ();
  t.st_child.(d) <- 0.;
  t.st_id.(d) <- t.next_id;
  t.st_pkt.(d) <- pkt;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1

let leave_at t stop =
  let d = t.depth - 1 in
  let name = t.st_name.(d) in
  let dur = stop -. t.st_start.(d) in
  t.count.(name) <- t.count.(name) + 1;
  t.total.(name) <- t.total.(name) +. dur;
  t.self.(name) <- t.self.(name) +. (dur -. t.st_child.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) +. dur;
  let slot = t.recorded land (ring_capacity - 1) in
  t.r_name.(slot) <- name;
  t.r_start.(slot) <- t.st_start.(d);
  t.r_end.(slot) <- stop;
  t.r_id.(slot) <- t.st_id.(d);
  t.r_parent.(slot) <- (if d > 0 then t.st_id.(d - 1) else -1);
  t.r_pkt.(slot) <- t.st_pkt.(d);
  t.recorded <- t.recorded + 1;
  t.depth <- d

let[@inline] leave t = leave_at t (now ())

(* A cell that raised may leave spans open; the next cell starts clean. *)
let reset_stack t =
  t.depth <- 0;
  t.ev_open <- false

(* The simulator calls [pr_clock] once before an action and once after,
   then [pr_hit] with the action's kind.  The first call opens the event
   span (its name is only known at [pr_hit]) and samples the pending set;
   the second stamps the end, which [pr_hit] uses to close it. *)
let probe t sim =
  {
    Sim.pr_clock =
      (fun () ->
        let c = now () in
        if t.ev_open then t.ev_end <- c
        else begin
          t.ev_open <- true;
          let d = t.depth in
          t.st_name.(d) <- Sim.Kind.other;
          t.st_start.(d) <- c;
          t.st_child.(d) <- 0.;
          t.st_id.(d) <- t.next_id;
          t.st_pkt.(d) <- -1;
          t.next_id <- t.next_id + 1;
          t.depth <- d + 1;
          t.pending_sum <- t.pending_sum +. float_of_int (Sim.pending sim)
        end;
        c);
    pr_hit =
      (fun ~kind ~dt ->
        t.st_name.(t.depth - 1) <- (if kind >= 0 && kind < Sim.Kind.count then kind else Sim.Kind.other);
        t.events <- t.events + 1;
        t.event_ns <- t.event_ns +. dt;
        leave_at t t.ev_end;
        t.ev_open <- false);
  }

let write_jsonl t path =
  let oc = open_out path in
  let n = min t.recorded ring_capacity in
  let first = t.recorded - n in
  for i = first to t.recorded - 1 do
    let s = i land (ring_capacity - 1) in
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%.0f,\"end_ns\":%.0f,\"pkt\":%d}\n"
      t.r_id.(s) t.r_parent.(s) (name t.r_name.(s)) t.r_start.(s) t.r_end.(s) t.r_pkt.(s)
  done;
  close_out oc

(* In-run telemetry: cadence-scheduled snapshots of integer sources into
   preallocated struct-of-arrays rings (DESIGN.md section 15).

   A channel names one integer source — a counter cell, a sum over cells,
   or an arbitrary int thunk — plus a mode: [Cumulative] stores the delta
   since the previous tick (so dividing by the interval yields a rate),
   [Level] stores the instantaneous value (queue depths, cache occupancy).

   The tick path is allocation-free by construction: channels live in an
   array fixed at [freeze] time, each holds its resolved source and a flat
   float ring (unboxed stores), and reading a source is an int load (or an
   int-returning thunk, which the caller guarantees does not allocate).
   Rings are power-of-two sized and overwrite oldest-first, like {!Trace}.

   Simulator runs drive ticks with {!attach} — a read-only
   [Sim.schedule_aux] chain, which draws negative sequence numbers so the
   run stays bit-identical to one without telemetry; the pps bench calls
   {!tick} itself.  Window k is stamped [k *. interval] by multiplication,
   so the series does not depend on accumulated float error or on
   [--jobs]. *)

type source =
  | Cell of Counters.t * int (* one counter cell, by Event.to_int index *)
  | Cells of Counters.t array * int (* the same cell summed across instances *)
  | Int_fn of (unit -> int) (* any int probe; must not allocate *)

type mode = Cumulative | Level

type channel = {
  ch_name : string;
  ch_source : source;
  ch_mode : mode;
  mutable ch_prev : int; (* last raw reading (Cumulative delta base) *)
  ch_ring : float array;
}

type t = {
  interval : float;
  mask : int; (* ring capacity - 1; capacity is a power of two *)
  mutable chans : channel list; (* reverse registration order, until freeze *)
  mutable frozen : channel array; (* registration order; set by freeze *)
  times : float array;
  mutable written : int; (* windows recorded (monotonic; rings hold the tail) *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ?(capacity = 4096) ~interval () =
  if not (interval > 0.) then invalid_arg "Timeseries.create: interval must be positive";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  let cap = next_pow2 capacity 1 in
  {
    interval;
    mask = cap - 1;
    chans = [];
    frozen = [||];
    times = Array.make cap 0.;
    written = 0;
  }

let interval t = t.interval
let capacity t = t.mask + 1

let add t ~name ~mode source =
  if t.frozen <> [||] then invalid_arg "Timeseries.add: channels are frozen (already ticking)";
  if List.exists (fun c -> c.ch_name = name) t.chans then
    invalid_arg (Printf.sprintf "Timeseries.add: duplicate channel %S" name);
  t.chans <-
    { ch_name = name; ch_source = source; ch_mode = mode; ch_prev = 0; ch_ring = Array.make (t.mask + 1) 0. }
    :: t.chans

let[@inline] read_source = function
  | Cell (c, i) -> Counters.cell c i
  | Cells (cs, i) ->
      let s = ref 0 in
      for k = 0 to Array.length cs - 1 do
        s := !s + Counters.cell (Array.unsafe_get cs k) i
      done;
      !s
  | Int_fn f -> f ()

(* Fix the channel set (registration order) and baseline the cumulative
   sources, so the first window's delta counts from attach time, not from
   zero.  Idempotent; [tick] calls it on first use. *)
let freeze t =
  if t.frozen = [||] && t.chans <> [] then begin
    t.frozen <- Array.of_list (List.rev t.chans);
    Array.iter (fun ch -> ch.ch_prev <- read_source ch.ch_source) t.frozen
  end

let channels t =
  freeze t;
  Array.to_list (Array.map (fun c -> c.ch_name) t.frozen)

let chan_index t name =
  freeze t;
  let rec go i =
    if i >= Array.length t.frozen then None
    else if t.frozen.(i).ch_name = name then Some i
    else go (i + 1)
  in
  go 0

(* One telemetry window at absolute sim time [time].  Allocation-free. *)
let tick t ~time =
  freeze t;
  let slot = t.written land t.mask in
  Array.unsafe_set t.times slot time;
  let chans = t.frozen in
  for k = 0 to Array.length chans - 1 do
    let ch = Array.unsafe_get chans k in
    let v = read_source ch.ch_source in
    let stored =
      match ch.ch_mode with
      | Cumulative ->
          let d = v - ch.ch_prev in
          ch.ch_prev <- v;
          float_of_int d
      | Level -> float_of_int v
    in
    Array.unsafe_set ch.ch_ring slot stored
  done;
  t.written <- t.written + 1

(* The aux-chain tick driver.  Window k is stamped [k *. interval]; the
   chain stops past [until].  Freezing here, before the run, baselines the
   cumulative channels at their set-up values, so window 1 holds the
   first interval's delta. *)
let attach ?(on_tick = ignore) t sim ~until =
  (* An endless chain would keep a run-dry [Sim.run] alive forever. *)
  if not (Float.is_finite until) then invalid_arg "Timeseries.attach: until must be finite";
  let k = ref 1 in
  let rec arm () =
    let tm = float_of_int !k *. t.interval in
    if tm <= until then
      ignore
        (Sim.schedule_aux sim ~time:tm (fun () ->
             tick t ~time:tm;
             on_tick ();
             incr k;
             arm ()))
  in
  freeze t;
  arm ()

(* --- accessors (oldest surviving window = index 0) ---------------------- *)

let written t = t.written
let length t = min t.written (t.mask + 1)

let[@inline] slot_of t i =
  let n = length t in
  if i < 0 || i >= n then invalid_arg "Timeseries: window index out of range";
  (t.written - n + i) land t.mask

let time_at t i = t.times.(slot_of t i)

let value t ~chan i =
  freeze t;
  t.frozen.(chan).ch_ring.(slot_of t i)

(* Per-second rate for cumulative channels; levels pass through. *)
let rate t ~chan i =
  freeze t;
  let ch = t.frozen.(chan) in
  let v = ch.ch_ring.(slot_of t i) in
  match ch.ch_mode with Cumulative -> v /. t.interval | Level -> v

let mode t ~chan =
  freeze t;
  t.frozen.(chan).ch_mode

let chan_name t ~chan =
  freeze t;
  t.frozen.(chan).ch_name

(* Latest window, without index arithmetic at call sites. *)
let last_value t ~chan = value t ~chan (length t - 1)
let last_rate t ~chan = rate t ~chan (length t - 1)
let last_time t = time_at t (length t - 1)

(* --- export ------------------------------------------------------------- *)

(* Last [last] windows (default: all surviving) as row objects. *)
let rows ?last t =
  freeze t;
  let n = length t in
  let keep = match last with None -> n | Some w -> min n (max 0 w) in
  let out = ref [] in
  for i = n - 1 downto n - keep do
    let row =
      ("t", Export.Float (time_at t i))
      :: Array.to_list
           (Array.mapi (fun c ch -> (ch.ch_name, Export.Float (value t ~chan:c i))) t.frozen)
    in
    out := Export.Obj row :: !out
  done;
  !out

let to_json ?last t =
  freeze t;
  Export.Obj
    [
      ("interval", Export.Float t.interval);
      ( "channels",
        Export.List
          (Array.to_list
             (Array.map
                (fun ch ->
                  Export.Obj
                    [
                      ("name", Export.String ch.ch_name);
                      ( "mode",
                        Export.String
                          (match ch.ch_mode with Cumulative -> "cumulative" | Level -> "level") );
                    ])
                t.frozen)) );
      ("windows", Export.List (rows ?last t));
    ]

let to_jsonl t buf =
  List.iter
    (fun row ->
      Export.to_buffer buf row;
      Buffer.add_char buf '\n')
    (rows t)

let to_csv t buf =
  freeze t;
  Buffer.add_string buf "t";
  Array.iter
    (fun ch ->
      Buffer.add_char buf ',';
      Buffer.add_string buf ch.ch_name)
    t.frozen;
  Buffer.add_char buf '\n';
  let n = length t in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%.9g" (time_at t i));
    Array.iteri
      (fun c _ -> Buffer.add_string buf (Printf.sprintf ",%.9g" (value t ~chan:c i)))
      t.frozen;
    Buffer.add_char buf '\n'
  done

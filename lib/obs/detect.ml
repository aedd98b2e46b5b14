(* Online incident detection over telemetry intervals (DESIGN.md §15).

   Each rule watches one timeseries channel through an EWMA and a
   hysteresis pair of thresholds: the smoothed signal must sit at or above
   [r_on] for [r_up] consecutive windows to open an incident, and at or
   below [r_off] for [r_down] consecutive windows to clear it.  The EWMA
   rejects single-window spikes; the threshold gap plus the consecutive-
   window counts reject flapping around a single threshold — a signal
   oscillating between [r_off] and [r_on] produces one incident, not one
   per oscillation (property-tested).

   Stepping is allocation-free except at incident onset (one record).
   Incidents carry onset/clear sim-times and the peak raw value, which is
   what the chaos harness turns into measured engage/recover times. *)

type rule = {
  r_name : string;
  r_chan : string; (* Timeseries channel to watch *)
  r_signal : [ `Rate | `Value ]; (* feed the EWMA rates or raw stored values *)
  r_on : float;
  r_off : float; (* r_off <= r_on: the hysteresis gap *)
  r_up : int; (* consecutive windows at/above r_on to open *)
  r_down : int; (* consecutive windows at/below r_off to clear *)
  r_alpha : float; (* EWMA weight of the newest window, in (0, 1] *)
}

let rule ?(signal = `Rate) ?(up = 1) ?(down = 2) ?(alpha = 0.5) ~name ~chan ~on ~off () =
  if not (off <= on) then invalid_arg "Detect.rule: off must be <= on (hysteresis)";
  if up < 1 || down < 1 then invalid_arg "Detect.rule: up/down must be >= 1";
  if not (alpha > 0. && alpha <= 1.) then invalid_arg "Detect.rule: alpha must be in (0, 1]";
  { r_name = name; r_chan = chan; r_signal = signal; r_on = on; r_off = off; r_up = up; r_down = down; r_alpha = alpha }

type incident = {
  in_rule : string;
  in_onset : float; (* sim time of the opening window *)
  mutable in_clear : float; (* nan while open *)
  mutable in_peak : float; (* extreme raw signal while active *)
  mutable in_peak_at : float;
  mutable in_open : bool; (* true if never cleared (finalized open at run end) *)
}

type state = {
  st_rule : rule;
  st_chan : int;
  mutable st_ewma : float; (* nan until the first window *)
  mutable st_up : int;
  mutable st_down : int;
  mutable st_current : incident option;
}

type t = {
  ts : Timeseries.t;
  states : state array;
  mutable incidents : incident list; (* reverse onset order *)
  mutable on_onset : incident -> unit;
}

let create ~rules ts =
  let states =
    List.filter_map
      (fun r ->
        match Timeseries.chan_index ts r.r_chan with
        | None ->
            invalid_arg (Printf.sprintf "Detect.create: rule %S: no channel %S" r.r_name r.r_chan)
        | Some chan ->
            Some
              { st_rule = r; st_chan = chan; st_ewma = nan; st_up = 0; st_down = 0; st_current = None })
      rules
  in
  { ts; states = Array.of_list states; incidents = []; on_onset = ignore }

let on_onset t f = t.on_onset <- f

(* Consume the newest window.  Call once after every Timeseries.tick. *)
let step t =
  let n = Timeseries.length t.ts in
  if n > 0 then begin
    let i = n - 1 in
    let time = Timeseries.time_at t.ts i in
    for k = 0 to Array.length t.states - 1 do
      let st = t.states.(k) in
      let r = st.st_rule in
      let v =
        match r.r_signal with
        | `Rate -> Timeseries.rate t.ts ~chan:st.st_chan i
        | `Value -> Timeseries.value t.ts ~chan:st.st_chan i
      in
      st.st_ewma <-
        (if Float.is_nan st.st_ewma then v
         else (r.r_alpha *. v) +. ((1. -. r.r_alpha) *. st.st_ewma));
      match st.st_current with
      | None ->
          if st.st_ewma >= r.r_on then begin
            st.st_up <- st.st_up + 1;
            if st.st_up >= r.r_up then begin
              let inc =
                {
                  in_rule = r.r_name;
                  in_onset = time;
                  in_clear = nan;
                  in_peak = v;
                  in_peak_at = time;
                  in_open = true;
                }
              in
              st.st_current <- Some inc;
              st.st_up <- 0;
              st.st_down <- 0;
              t.incidents <- inc :: t.incidents;
              t.on_onset inc
            end
          end
          else st.st_up <- 0
      | Some inc ->
          if v > inc.in_peak then begin
            inc.in_peak <- v;
            inc.in_peak_at <- time
          end;
          if st.st_ewma <= r.r_off then begin
            st.st_down <- st.st_down + 1;
            if st.st_down >= r.r_down then begin
              inc.in_clear <- time;
              inc.in_open <- false;
              st.st_current <- None;
              st.st_down <- 0
            end
          end
          else st.st_down <- 0
    done
  end

(* Finalize at run end: incidents still active close at [time] but stay
   marked open, so "never recovered" is distinguishable from "recovered
   exactly at the end". *)
let finish t ~time =
  Array.iter
    (fun st ->
      match st.st_current with
      | Some inc ->
          inc.in_clear <- time;
          st.st_current <- None
      | None -> ())
    t.states

let incidents t = List.rev t.incidents

(* The chaos harness's measured engagement and recovery: first onset, span
   from it to the last clear, and whether every incident truly cleared.
   Over finalized incidents ([finish] ran) every clear is a time; an
   incident still active has a NaN clear, which makes the span NaN. *)
let engage_recover = function
  | [] -> None
  | incs ->
      let onset = List.fold_left (fun a i -> Float.min a i.in_onset) infinity incs in
      let clear = List.fold_left (fun a i -> Float.max a i.in_clear) neg_infinity incs in
      Some (onset, clear -. onset, List.for_all (fun i -> not i.in_open) incs)

let incident_json i =
  Export.Obj
    [
      ("rule", Export.String i.in_rule);
      ("onset", Export.Float i.in_onset);
      ("clear", Export.number_or_null i.in_clear);
      ("peak", Export.number_or_null i.in_peak);
      ("peak_at", Export.Float i.in_peak_at);
      ("open", Export.Bool i.in_open);
    ]

let to_json t = Export.List (List.map incident_json (incidents t))

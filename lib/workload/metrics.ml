type t = {
  mutable attempted : int;
  mutable completed : int;
  mutable aborted : int;
  mutable bytes_completed : int;
  mutable times : Stats.Summary.t;
  timeline : Stats.Timeseries.t;
}

let create () =
  {
    attempted = 0;
    completed = 0;
    aborted = 0;
    bytes_completed = 0;
    times = Stats.Summary.create ();
    timeline = Stats.Timeseries.create ();
  }

let record_start t = t.attempted <- t.attempted + 1

let record_outcome t ~now ?(bytes = 0) outcome =
  match outcome with
  | Tcp.Conn.Completed { duration } ->
      t.completed <- t.completed + 1;
      t.bytes_completed <- t.bytes_completed + bytes;
      Stats.Summary.add t.times duration;
      Stats.Timeseries.add t.timeline ~time:now duration
  | Tcp.Conn.Aborted _ -> t.aborted <- t.aborted + 1

let attempted t = t.attempted
let completed t = t.completed
let aborted t = t.aborted

(* "Nothing attempted" is not "everything completed": exports must be able
   to tell an idle cell from a perfect one, so the honest form is an
   option.  The float form keeps returning 1.0 for the plots (an idle cell
   plots as undamaged, matching the paper's figures). *)
let fraction_completed_opt t =
  if t.attempted = 0 then None else Some (float_of_int t.completed /. float_of_int t.attempted)

let fraction_completed t =
  match fraction_completed_opt t with None -> 1.0 | Some f -> f

let avg_transfer_time t = if t.completed = 0 then nan else Stats.Summary.mean t.times

(* The timeline keeps every completed duration (one point per transfer),
   so the median comes from sorting its values — [Stats.Summary] only
   carries moments. *)
let median_transfer_time t =
  let points = Stats.Timeseries.points t.timeline in
  let n = Array.length points in
  if n = 0 then nan
  else begin
    let values = Array.map snd points in
    Array.sort Float.compare values;
    if n mod 2 = 1 then values.(n / 2) else (values.((n / 2) - 1) +. values.(n / 2)) /. 2.
  end

let bytes_completed t = t.bytes_completed

(* Jain's fairness index (x1..xn) = (Σx)² / (n·Σx²): 1.0 for equal
   shares, 1/n when one sender hogs everything.  The empty list and the
   all-zero list carry no information, so the honest form is an option;
   the float form reports them as perfectly fair so an idle cell does not
   plot as unfair, as [fraction_completed] does. *)
let jain_index_opt shares =
  let sum = List.fold_left ( +. ) 0. shares in
  let sumsq = List.fold_left (fun acc x -> acc +. (x *. x)) 0. shares in
  if sumsq = 0. then None else Some (sum *. sum /. (float_of_int (List.length shares) *. sumsq))

let jain_index shares = match jain_index_opt shares with None -> 1.0 | Some j -> j

let timeline t = t.timeline

let merge_into acc x =
  acc.attempted <- acc.attempted + x.attempted;
  acc.completed <- acc.completed + x.completed;
  acc.aborted <- acc.aborted + x.aborted;
  acc.bytes_completed <- acc.bytes_completed + x.bytes_completed;
  acc.times <- Stats.Summary.merge acc.times x.times;
  Array.iter
    (fun (time, v) -> Stats.Timeseries.add acc.timeline ~time v)
    (Stats.Timeseries.points x.timeline)

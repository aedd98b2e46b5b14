type t = { mutable items : (float * float) list; mutable n : int }

let create () = { items = []; n = 0 }

let add t ~time v =
  t.items <- (time, v) :: t.items;
  t.n <- t.n + 1

let length t = t.n

let points t = Array.of_list (List.rev t.items)

let values_in t ~lo ~hi =
  List.rev (List.filter_map (fun (time, v) -> if time >= lo && time < hi then Some v else None) t.items)

let max_value t = List.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity t.items

let to_csv t =
  let b = Buffer.create (16 * t.n) in
  Buffer.add_string b "time,value\n";
  Array.iter (fun (time, v) -> Buffer.add_string b (Printf.sprintf "%.6f,%.6f\n" time v)) (points t);
  Buffer.contents b

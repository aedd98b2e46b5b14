(* The deterministic domain pool: submission-order results, sequential
   equivalence, exception propagation. *)

let map_matches_list_map () =
  let items = List.init 50 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = List.map f items in
  Alcotest.(check (list int)) "jobs=1" expected (Pool.map ~jobs:1 f items);
  Alcotest.(check (list int)) "jobs=4" expected (Pool.map ~jobs:4 f items);
  Alcotest.(check (list int)) "jobs>items" expected (Pool.map ~jobs:64 f items)

let results_in_submission_order () =
  (* Make early jobs the slowest so completion order inverts submission
     order: results must still come back in submission order. *)
  let items = List.init 8 (fun i -> i) in
  let f i =
    let spin = (8 - i) * 100_000 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := !acc + k
    done;
    ignore !acc;
    i
  in
  Alcotest.(check (list int)) "order" items (Pool.map ~jobs:4 f items)

let empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 (fun x -> x) [ 7 ])

exception Boom of int

let exceptions_propagate () =
  match Pool.map ~jobs:4 (fun i -> if i = 3 then raise (Boom i) else i) (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 3 -> ()
  | exception e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e)

let default_jobs_positive () =
  Alcotest.(check bool) "at least one worker" true (Pool.default_jobs () >= 1)

let independent_sims_in_parallel () =
  (* Each job runs its own simulator; parallel results must equal the
     sequential ones exactly (shared-nothing determinism). *)
  let job seed =
    let sim = Sim.create ~seed () in
    let total = ref 0. in
    for i = 1 to 100 do
      Sim.schedule sim ~delay:(Rng.float (Sim.rng sim) 10.)
        (fun () -> total := !total +. (Sim.now sim *. float_of_int i))
    done;
    Sim.run sim;
    !total
  in
  let seeds = List.init 16 (fun i -> i + 1) in
  let seq = Pool.map ~jobs:1 job seeds in
  let par = Pool.map ~jobs:4 job seeds in
  List.iter2 (fun a b -> Alcotest.(check (float 0.)) "bitwise equal" a b) seq par

let suite =
  [
    Alcotest.test_case "map = List.map" `Quick map_matches_list_map;
    Alcotest.test_case "submission order" `Quick results_in_submission_order;
    Alcotest.test_case "empty/singleton" `Quick empty_and_singleton;
    Alcotest.test_case "exception propagation" `Quick exceptions_propagate;
    Alcotest.test_case "default jobs" `Quick default_jobs_positive;
    Alcotest.test_case "parallel sims deterministic" `Quick independent_sims_in_parallel;
  ]

(* Host-speed probe: a fixed piece of work that uses none of the
   simulator's code, so no change to the simulator makes it faster or
   slower.  It is a hold model on [Stdlib.Map], 2 048 keys kept pending,
   each popped and pushed back further on: small allocations, pointer
   chasing and comparisons, as in the simulator's event loop.  When other
   tenants of a shared host slow the machine down, the probe slows with
   the simulator, so a timing divided by the probe's time measured next
   to it stays put. *)

module M = Map.Make (Int)

let keys = 2_048
let steps = 40_000

let work () =
  let x = ref 12_345 in
  let next () =
    x := ((!x * 1_103_515_245) + 12_345) land 0x3fff_ffff;
    !x
  in
  let m = ref M.empty in
  for i = 1 to keys do
    m := M.add (next ()) i !m
  done;
  for _ = 1 to steps do
    let k, v = M.min_binding !m in
    m := M.add (k + 1 + (next () land 0xffff)) v (M.remove k !m)
  done;
  M.cardinal !m

(* The probe's time, unloaded, on a shared 2-core Intel Xeon VM with
   OCaml 5.1.1.  Timings scaled by [reference_s /. probe ()] read as
   seconds on that machine when it is unloaded. *)
let reference_s = 0.012

(* Seconds one [work ()] takes now: the fastest of five, so that a stray
   interruption inside one of them does not count. *)
let probe () =
  let once () =
    let t0 = Workloads.wall () in
    ignore (Sys.opaque_identity (work ()));
    Workloads.wall () -. t0
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

(* Thin constructor: the DRR datapath itself lives in [Qdisc] (direct
   dispatch over the concrete variant). *)

let create ?(name = "drr") ?(quantum = 1500) ?(queue_capacity_bytes = 65536) ?(max_queues = 4096)
    ~classify () =
  if quantum <= 0 then invalid_arg "Drr.create: quantum must be positive";
  if queue_capacity_bytes <= 0 then invalid_arg "Drr.create: queue capacity must be positive";
  if max_queues <= 0 then invalid_arg "Drr.create: max_queues must be positive";
  Qdisc.make ~name
    (Qdisc.Drr
       {
         Qdisc.d_quantum = quantum;
         d_capacity = queue_capacity_bytes;
         d_max_queues = max_queues;
         d_classify = classify;
         (* Backlogged classes only, and it grows on demand: a small
            initial table keeps set-up cheap, since every TVA link
            direction builds two DRRs. *)
         d_slots = Qdisc.drr_table ();
         d_count = 0;
         d_ring = Intring.create ();
         d_current = 0;
         d_has_current = false;
         d_packets = 0;
         d_bytes = 0;
         d_pool = [||];
         d_pool_len = 0;
       })

let active_queues (qdisc : Qdisc.t) =
  match qdisc.Qdisc.kind with
  | Qdisc.Drr d ->
      Array.fold_left
        (fun acc sq -> if sq != Qdisc.drr_vacant && sq.Qdisc.dc_active then acc + 1 else acc)
        0 d.Qdisc.d_slots
  | _ -> invalid_arg "Drr.active_queues: not a DRR qdisc"

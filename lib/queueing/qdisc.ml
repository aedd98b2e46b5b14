(* The queueing datapath.

   A qdisc used to be a record of closures (each discipline wrapping the
   next), which made the per-packet path three indirect calls deep, each
   returning a freshly boxed [option].  It is now a concrete variant: the
   disciplines' state lives here and [enqueue]/[dequeue]/[next_ready]
   dispatch over [kind] as a match chain, so the TVA link scheduler
   (strict priority -> token bucket -> DRR) runs as straight-line code.

   Allocation discipline (DESIGN.md Sec. 9): steady-state enqueue/dequeue
   allocate nothing.  FIFOs are ring buffers ([Pktring]), DRR's round-robin
   ring is an int ring ([Intring]), the token bucket meters with a
   fixed-point [Policer], "no packet" is the physical sentinel [none]
   instead of [option], and "never ready" is [infinity] instead of
   [float option]. *)

type stats = {
  mutable enqueued : int;
  mutable dequeued : int;
  mutable dropped : int;
  mutable bytes_enqueued : int;
  mutable bytes_dequeued : int;
  mutable bytes_dropped : int;
  mutable hwm_packets : int;
}

let fresh_stats () =
  {
    enqueued = 0;
    dequeued = 0;
    dropped = 0;
    bytes_enqueued = 0;
    bytes_dequeued = 0;
    bytes_dropped = 0;
    hwm_packets = 0;
  }

(* "No packet", by physical identity.  Shared with the rings' empty-slot
   filler so [Pktring.pop] on an empty ring and "dequeue found nothing"
   are the same value. *)
let none = Pktring.nil

type t = { name : string; stats : stats; kind : kind }

and kind =
  | Fifo of fifo
  | Drr of drr
  | Token_bucket of token_bucket
  | Priority of priority
  | Custom of custom

(* --- droptail FIFO ----------------------------------------------------- *)
and fifo = {
  f_capacity_bytes : int;
  f_capacity_packets : int; (* [max_int] when unbounded *)
  f_ring : Pktring.t;
  mutable f_bytes : int;
}

(* --- deficit round robin ----------------------------------------------- *)
and drr = {
  d_quantum : int;
  d_capacity : int; (* per-class byte capacity *)
  d_max_queues : int;
  d_classify : Wire.Packet.t -> int;
  (* The backlogged classes, open-addressed by key ([drr_find]). *)
  mutable d_slots : drr_class array;
  mutable d_count : int; (* classes filed in [d_slots] *)
  d_ring : Intring.t; (* keys awaiting service, round-robin order *)
  mutable d_current : int; (* key being served within its deficit... *)
  mutable d_has_current : bool; (* ...valid only when this is set *)
  mutable d_packets : int;
  mutable d_bytes : int;
  (* Drained class records are recycled through this stack so a class that
     reactivates costs no fresh record or ring allocation. *)
  mutable d_pool : drr_class array;
  mutable d_pool_len : int;
}

and drr_class = {
  mutable dc_key : int; (* the key this record is filed under *)
  dc_ring : Pktring.t;
  mutable dc_bytes : int;
  mutable dc_deficit : int;
  mutable dc_active : bool; (* present in the round-robin ring *)
}

(* --- token bucket ------------------------------------------------------ *)
and token_bucket = {
  tb_meter : Policer.t;
  tb_horizon : int; (* min(burst, mtu) bytes: poll horizon for an unstaged head *)
  mutable tb_staged : Wire.Packet.t; (* head awaiting tokens; [none] if absent *)
  tb_inner : t;
}

(* --- strict priority ---------------------------------------------------- *)
and priority = {
  p_classify : Wire.Packet.t -> int; (* clamped into [0, classes-1] *)
  p_classes : t array;
}

(* --- escape hatch for disciplines defined outside this module ---------- *)
and custom = {
  c_enqueue : now:float -> Wire.Packet.t -> bool;
  c_dequeue : now:float -> Wire.Packet.t; (* [none] when unservable *)
  c_next_ready : now:float -> float; (* [infinity] when never *)
  c_packet_count : unit -> int;
  c_byte_count : unit -> int;
}

(* --- DRR class pool ---------------------------------------------------- *)

let drr_fresh_class () =
  { dc_key = 0; dc_ring = Pktring.create (); dc_bytes = 0; dc_deficit = 0; dc_active = false }

let drr_take_class d ~key =
  let sq =
    if d.d_pool_len = 0 then drr_fresh_class ()
    else begin
      d.d_pool_len <- d.d_pool_len - 1;
      d.d_pool.(d.d_pool_len)
    end
  in
  sq.dc_key <- key;
  sq.dc_bytes <- 0;
  sq.dc_deficit <- 0;
  sq.dc_active <- false;
  sq
  [@@inline]

let drr_release_class d sq =
  if d.d_pool_len = Array.length d.d_pool then begin
    let bigger = Array.make (max 8 (2 * d.d_pool_len)) sq in
    Array.blit d.d_pool 0 bigger 0 d.d_pool_len;
    d.d_pool <- bigger
  end;
  d.d_pool.(d.d_pool_len) <- sq;
  d.d_pool_len <- d.d_pool_len + 1

let overflow_key = min_int
(* Shared queue for keys arriving once [d_max_queues] distinct classes
   exist. *)

(* --- DRR class table ---------------------------------------------------- *)

(* The backlogged classes sit in [d_slots], open-addressed by key with
   linear probing: a power-of-two array at most half full, [drr_vacant]
   in every empty slot.  Filing and removing a class write slots only, so
   a class that drains and comes back allocates nothing (a [Hashtbl]
   filed a fresh bucket each time, and hashed and compared its key
   polymorphically on every lookup). *)
let drr_vacant = drr_fresh_class ()

let drr_table () = Array.make 8 drr_vacant

(* A multiplicative hash, so that consecutive keys spread. *)
let[@inline] drr_home key mask = ((key * 0x9E3779B97F4A7C1) lsr 29) land mask

(* The slot holding [key], or the first vacant one on its probe chain. *)
let rec drr_probe slots mask key i =
  let c = Array.unsafe_get slots i in
  if c == drr_vacant || c.dc_key = key then i else drr_probe slots mask key ((i + 1) land mask)

(* The class filed under [key], or [drr_vacant]. *)
let drr_find d key =
  let slots = d.d_slots in
  let mask = Array.length slots - 1 in
  Array.unsafe_get slots (drr_probe slots mask key (drr_home key mask))

let drr_place slots sq =
  let mask = Array.length slots - 1 in
  Array.unsafe_set slots (drr_probe slots mask sq.dc_key (drr_home sq.dc_key mask)) sq

(* File [sq], whose key is not filed, doubling the table first if it
   would be more than half full. *)
let drr_file d sq =
  if 2 * (d.d_count + 1) > Array.length d.d_slots then begin
    let old = d.d_slots in
    let slots = Array.make (2 * Array.length old) drr_vacant in
    Array.iter (fun c -> if c != drr_vacant then drr_place slots c) old;
    d.d_slots <- slots
  end;
  drr_place d.d_slots sq;
  d.d_count <- d.d_count + 1

(* Remove the filed [key].  Backward-shift deletion: each later entry of
   the probe run moves into the hole unless its home lies cyclically in
   (hole, entry], so every remaining chain stays unbroken with no
   tombstones. *)
let drr_unfile d key =
  let slots = d.d_slots in
  let mask = Array.length slots - 1 in
  let hole = ref (drr_probe slots mask key (drr_home key mask)) in
  Array.unsafe_set slots !hole drr_vacant;
  d.d_count <- d.d_count - 1;
  let j = ref ((!hole + 1) land mask) in
  while Array.unsafe_get slots !j != drr_vacant do
    let c = Array.unsafe_get slots !j in
    let h = drr_home c.dc_key mask in
    let stays = if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j in
    if not stays then begin
      Array.unsafe_set slots !hole c;
      Array.unsafe_set slots !j drr_vacant;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

(* Find or create the class for [key]; once the class table is full, new
   keys share the overflow class.  (Mirrors the paper's bounded per-path-id
   and per-destination queues, Sec. 3.2/3.6.) *)
let rec drr_slot d key =
  let sq = drr_find d key in
  if sq != drr_vacant then sq
  else if d.d_count >= d.d_max_queues && key <> overflow_key then drr_slot d overflow_key
  else begin
    let sq = drr_take_class d ~key in
    drr_file d sq;
    sq
  end

(* --- the datapath ------------------------------------------------------ *)

(* Every token bucket in [t] holds its full burst.  A [Custom] level may
   hold state this module cannot see, so it never counts as full. *)
let rec buckets_full t =
  match t.kind with
  | Fifo _ | Drr _ -> true
  | Token_bucket tb -> Policer.full tb.tb_meter && buckets_full tb.tb_inner
  | Priority pr -> classes_full pr.p_classes 0
  | Custom _ -> false

and classes_full classes i =
  i >= Array.length classes
  || (buckets_full (Array.unsafe_get classes i) && classes_full classes (i + 1))

(* Quiet: no packet held at this level or below (every level counts what
   it hands up, and a staged head is still held) and every meter full.  A
   dequeue would return [none], a readiness query [infinity], and neither
   would change any state that a later call can observe: an empty FIFO or
   DRR pops nothing, and a full bucket's refill only moves its clock
   ([Policer.full]).  So both may be skipped. *)
let[@inline] quiet t = t.stats.enqueued = t.stats.dequeued && buckets_full t

(* The size is computed once, at the top, and handed down the levels. *)
let rec enqueue_sized t ~now p size =
  let accepted =
    match t.kind with
    | Fifo f ->
        if f.f_bytes + size > f.f_capacity_bytes || Pktring.length f.f_ring >= f.f_capacity_packets
        then false
        else begin
          Pktring.push f.f_ring p;
          f.f_bytes <- f.f_bytes + size;
          true
        end
    | Drr d ->
        let sq = drr_slot d (d.d_classify p) in
        if sq.dc_bytes + size > d.d_capacity then false
        else begin
          Pktring.push sq.dc_ring p;
          sq.dc_bytes <- sq.dc_bytes + size;
          d.d_packets <- d.d_packets + 1;
          d.d_bytes <- d.d_bytes + size;
          if not sq.dc_active then begin
            sq.dc_active <- true;
            sq.dc_deficit <- 0;
            Intring.push d.d_ring sq.dc_key
          end;
          true
        end
    | Token_bucket tb -> enqueue_sized tb.tb_inner ~now p size
    | Priority pr ->
        let n = Array.length pr.p_classes in
        let i = pr.p_classify p in
        let i = if i < 0 then 0 else if i >= n then n - 1 else i in
        enqueue_sized pr.p_classes.(i) ~now p size
    | Custom c -> c.c_enqueue ~now p
  in
  let stats = t.stats in
  if accepted then begin
    stats.enqueued <- stats.enqueued + 1;
    stats.bytes_enqueued <- stats.bytes_enqueued + size;
    (* Occupancy high-water mark, kept at the leaves where it is one int
       compare; composite levels report the max of their children. *)
    match t.kind with
    | Fifo f ->
        let n = Pktring.length f.f_ring in
        if n > stats.hwm_packets then stats.hwm_packets <- n
    | Drr d -> if d.d_packets > stats.hwm_packets then stats.hwm_packets <- d.d_packets
    | Token_bucket _ | Priority _ | Custom _ -> ()
  end
  else begin
    stats.dropped <- stats.dropped + 1;
    stats.bytes_dropped <- stats.bytes_dropped + size
  end;
  accepted

let enqueue t ~now p = enqueue_sized t ~now p (Wire.Packet.size p)

(* DRR dequeue, structured exactly like the closure version it replaces:
   pick up the ring head as [current], spend its deficit, rotate it to the
   tail when the deficit runs dry, and reclaim its record (into the pool)
   the moment it goes empty so the table only holds backlogged classes. *)
let rec drr_dequeue d =
  if not d.d_has_current then begin
    if Intring.is_empty d.d_ring then none
    else begin
      let key = Intring.pop d.d_ring in
      let sq = drr_find d key in
      if sq != drr_vacant then sq.dc_deficit <- sq.dc_deficit + d.d_quantum;
      d.d_current <- key;
      d.d_has_current <- true;
      drr_dequeue d
    end
  end
  else begin
    let key = d.d_current in
    let sq = drr_find d key in
    if sq == drr_vacant then begin
      d.d_has_current <- false;
      drr_dequeue d
    end
    else begin
      let head = Pktring.peek sq.dc_ring in
      if head == none then begin
        (* Served dry within its deficit: leaves the ring and its record
           is reclaimed. *)
        drr_unfile d key;
        drr_release_class d sq;
        d.d_has_current <- false;
        drr_dequeue d
      end
      else begin
        let size = Wire.Packet.size head in
        if size <= sq.dc_deficit then begin
          let p = Pktring.pop sq.dc_ring in
          sq.dc_deficit <- sq.dc_deficit - size;
          sq.dc_bytes <- sq.dc_bytes - size;
          d.d_packets <- d.d_packets - 1;
          d.d_bytes <- d.d_bytes - size;
          if Pktring.is_empty sq.dc_ring then begin
            drr_unfile d key;
            drr_release_class d sq;
            d.d_has_current <- false
          end;
          p
        end
        else begin
          (* Deficit exhausted: back to the tail of the ring, keeping the
             accumulated deficit for the next round. *)
          Intring.push d.d_ring key;
          d.d_has_current <- false;
          drr_dequeue d
        end
      end
    end
  end

and dequeue t ~now =
  let p =
    match t.kind with
    | Fifo f ->
        let p = Pktring.pop f.f_ring in
        if p != none then f.f_bytes <- f.f_bytes - Wire.Packet.size p;
        p
    | Drr d -> drr_dequeue d
    | Token_bucket tb ->
        let m = tb.tb_meter in
        Policer.refill m ~now;
        let staged = tb.tb_staged in
        if staged != none then begin
          if Policer.take m ~bytes:(Wire.Packet.size staged) then begin
            tb.tb_staged <- none;
            staged
          end
          else none
        end
        else begin
          let p = dequeue tb.tb_inner ~now in
          if p == none || Policer.take m ~bytes:(Wire.Packet.size p) then p
          else begin
            (* Stage the head until tokens accrue; a one-slot buffer
               rate-limits without a peek operation on the inner. *)
            tb.tb_staged <- p;
            none
          end
        end
    | Priority pr -> priority_dequeue pr.p_classes 0 ~now
    | Custom c -> c.c_dequeue ~now
  in
  if p != none then begin
    let stats = t.stats in
    stats.dequeued <- stats.dequeued + 1;
    stats.bytes_dequeued <- stats.bytes_dequeued + Wire.Packet.size p
  end;
  p

(* Strict priority: the first class with a servable packet wins, and a
   quiet class is passed over without a dequeue.  A top-level function
   rather than a local loop, so a dequeue builds no closure. *)
and priority_dequeue classes i ~now =
  if i >= Array.length classes then none
  else begin
    let c = Array.unsafe_get classes i in
    if quiet c then priority_dequeue classes (i + 1) ~now
    else begin
      let p = dequeue c ~now in
      if p != none then p else priority_dequeue classes (i + 1) ~now
    end
  end

let dequeue_opt t ~now =
  match dequeue t ~now with p when p == none -> None | p -> Some p

(* Earliest time the head packet could be released, or [infinity] when the
   qdisc is empty, written to [cell.(0)].  The value may be conservative
   (the transmitter re-polls), never late.  A float returned from a
   recursive call is boxed at every level, so each level writes its
   answer to the one cell instead, and its parent reads it back unboxed
   before the next child overwrites it. *)
let rec ready_into t ~now (cell : float array) =
  match t.kind with
  | Fifo f -> Array.unsafe_set cell 0 (if Pktring.is_empty f.f_ring then infinity else now)
  | Drr d -> Array.unsafe_set cell 0 (if d.d_packets > 0 then now else infinity)
  | Token_bucket tb ->
      let m = tb.tb_meter in
      Policer.refill m ~now;
      let staged = tb.tb_staged in
      if staged != none then
        Array.unsafe_set cell 0 (Policer.ready_at m ~now ~bytes:(Wire.Packet.size staged))
      else begin
        ready_into tb.tb_inner ~now cell;
        let at = Array.unsafe_get cell 0 in
        (* The inner head's exact size is unknown until staged; poll at
           the later of the inner readiness and a one-MTU token horizon.
           The transmitter will stage-and-recheck, so this is only a
           lower bound on readiness, never a miss. *)
        Array.unsafe_set cell 0
          (if at = infinity then infinity
           else Float.max at (Policer.ready_at m ~now ~bytes:tb.tb_horizon))
      end
  | Priority pr ->
      let acc = ref infinity in
      for i = 0 to Array.length pr.p_classes - 1 do
        let c = Array.unsafe_get pr.p_classes i in
        if not (quiet c) then begin
          ready_into c ~now cell;
          acc := Float.min !acc (Array.unsafe_get cell 0)
        end
      done;
      Array.unsafe_set cell 0 !acc
  | Custom c -> Array.unsafe_set cell 0 (c.c_next_ready ~now)

(* One result cell per domain: simulations run in parallel on [Pool]'s
   domains, and a qdisc belongs to one simulation. *)
let ready_cell = Domain.DLS.new_key (fun () -> [| infinity |])

(* A leaf, the common case, answers inline; only a composite that is not
   quiet goes through the cell. *)
let[@inline] next_ready t ~now =
  match t.kind with
  | Fifo f -> if Pktring.is_empty f.f_ring then infinity else now
  | Drr d -> if d.d_packets > 0 then now else infinity
  | Token_bucket _ | Priority _ | Custom _ ->
      if quiet t then infinity
      else begin
        let cell = Domain.DLS.get ready_cell in
        ready_into t ~now cell;
        Array.unsafe_get cell 0
      end

let rec packet_count t =
  match t.kind with
  | Fifo f -> Pktring.length f.f_ring
  | Drr d -> d.d_packets
  | Token_bucket tb -> packet_count tb.tb_inner + if tb.tb_staged == none then 0 else 1
  | Priority pr -> Array.fold_left (fun acc c -> acc + packet_count c) 0 pr.p_classes
  | Custom c -> c.c_packet_count ()

let rec byte_count t =
  match t.kind with
  | Fifo f -> f.f_bytes
  | Drr d -> d.d_bytes
  | Token_bucket tb ->
      byte_count tb.tb_inner
      + if tb.tb_staged == none then 0 else Wire.Packet.size tb.tb_staged
  | Priority pr -> Array.fold_left (fun acc c -> acc + byte_count c) 0 pr.p_classes
  | Custom c -> c.c_byte_count ()

(* Walk a composite qdisc, parent before children, depth-first in service
   order (request, regular, legacy for the TVA link).  Observability reads
   per-level stats and residual occupancy through this without knowing the
   composite's shape. *)
let rec iter_nested t f =
  f t;
  match t.kind with
  | Fifo _ | Custom _ -> ()
  | Drr _ -> ()
  | Token_bucket tb -> iter_nested tb.tb_inner f
  | Priority pr -> Array.iter (fun c -> iter_nested c f) pr.p_classes

(* --- constructors ------------------------------------------------------ *)

let make ~name kind = { name; stats = fresh_stats (); kind }

let make_custom ?(name = "custom") ~enqueue ~dequeue ~next_ready ~packet_count ~byte_count () =
  make ~name
    (Custom
       {
         c_enqueue = enqueue;
         c_dequeue = dequeue;
         c_next_ready = next_ready;
         c_packet_count = packet_count;
         c_byte_count = byte_count;
       })

type filter = {
  rate : float; (* bytes/s *)
  mutable tokens : float;
  mutable last : float;
}

(* Per-link state: drop attribution for detection, and the rate limiters
   pushback installs.  The limiter shapes: a head packet belonging to a
   limited aggregate waits in the queue for tokens rather than being
   dropped, exactly like Mahajan et al.'s rate-limited aggregate queues. *)
type link_state = {
  mutable window_tx : int;
  mutable window_drops : int;
  drops_by_dst : (int, int) Hashtbl.t;
  limits : (int, filter) Hashtbl.t; (* destination -> shaper *)
  mutable staged : Wire.Packet.t; (* head awaiting its limit's tokens; [Qdisc.none] if absent *)
}

type node_state = {
  node : Net.node;
  arrivals : (int * int, int) Hashtbl.t; (* (in-link id, dst) -> bytes this window *)
  mutable installed : (int * int) list; (* (in-link id, dst) limits we own *)
}

type t = {
  interval : float;
  drop_threshold : float;
  headroom : float;
  release_after : int;
  max_filters : int;
  sim : Sim.t;
  mutable registry : (Qdisc.stats * link_state) list; (* physical-identity keyed *)
  mutable nodes : node_state list;
  ages : (int * int, int) Hashtbl.t; (* quiet intervals per installed limit *)
}

let create ?(interval = 1.0) ?(drop_threshold = 0.05) ?(headroom = 0.10) ?(release_after = 3)
    ?(max_filters = 50) ~sim () =
  {
    interval;
    drop_threshold;
    headroom;
    release_after;
    max_filters;
    sim;
    registry = [];
    nodes = [];
    ages = Hashtbl.create 32;
  }

let link_state_of t (qdisc : Qdisc.t) =
  let rec find = function
    | [] -> None
    | (stats, ls) :: rest -> if stats == qdisc.Qdisc.stats then Some ls else find rest
  in
  find t.registry

let make_qdisc t ~bandwidth_bps =
  let inner =
    Droptail.create ~name:"pushback-fifo"
      ~capacity_packets:(Droptail.default_capacity_packets ~bandwidth_bps ~delay:0.06)
      ~capacity_bytes:(Droptail.default_capacity ~bandwidth_bps ~delay:0.06)
      ()
  in
  let ls =
    {
      window_tx = 0;
      window_drops = 0;
      drops_by_dst = Hashtbl.create 16;
      limits = Hashtbl.create 4;
      staged = Qdisc.none;
    }
  in
  let enqueue ~now p =
    let accepted = Qdisc.enqueue inner ~now p in
    if accepted then ls.window_tx <- ls.window_tx + 1
    else begin
      ls.window_drops <- ls.window_drops + 1;
      let dst = Wire.Addr.to_int p.Wire.Packet.dst in
      let n = match Hashtbl.find ls.drops_by_dst dst with n -> n | exception Not_found -> 0 in
      Hashtbl.replace ls.drops_by_dst dst (n + 1)
    end;
    accepted
  in
  let refill f ~now =
    if now > f.last then begin
      f.tokens <- Float.min (f.rate *. 0.25) (f.tokens +. (f.rate *. (now -. f.last)));
      f.last <- now
    end
  in
  (* The staged head, unless a limit on its destination holds it back for
     tokens ([Qdisc.none]). *)
  let release_staged ~now =
    let p = ls.staged in
    if p == Qdisc.none then Qdisc.none
    else begin
      match Hashtbl.find ls.limits (Wire.Addr.to_int p.Wire.Packet.dst) with
      | exception Not_found ->
          ls.staged <- Qdisc.none;
          p
      | f ->
          refill f ~now;
          let size = float_of_int (Wire.Packet.size p) in
          if f.tokens >= size then begin
            f.tokens <- f.tokens -. size;
            ls.staged <- Qdisc.none;
            p
          end
          else Qdisc.none
    end
  in
  let dequeue ~now =
    if ls.staged != Qdisc.none then release_staged ~now
    else begin
      let p = Qdisc.dequeue inner ~now in
      if p == Qdisc.none then Qdisc.none
      else begin
        ls.staged <- p;
        release_staged ~now
      end
    end
  in
  let next_ready ~now =
    let p = ls.staged in
    (* [inner] is a FIFO, ready whenever it holds a packet; answering
       from its count returns [now] or [infinity] as they came, where
       re-boxing [Qdisc.next_ready]'s result would allocate per call. *)
    if p == Qdisc.none then if Qdisc.packet_count inner = 0 then infinity else now
    else begin
      match Hashtbl.find ls.limits (Wire.Addr.to_int p.Wire.Packet.dst) with
      | exception Not_found -> now
      | f ->
          refill f ~now;
          let size = float_of_int (Wire.Packet.size p) in
          if f.tokens >= size then now else now +. ((size -. f.tokens) /. f.rate)
    end
  in
  let qdisc =
    Qdisc.make_custom ~name:"pushback-link" ~enqueue ~dequeue ~next_ready
      ~packet_count:(fun () ->
        Qdisc.packet_count inner + if ls.staged == Qdisc.none then 0 else 1)
      ~byte_count:(fun () ->
        Qdisc.byte_count inner
        + if ls.staged == Qdisc.none then 0 else Wire.Packet.size ls.staged)
      ()
  in
  t.registry <- (qdisc.Qdisc.stats, ls) :: t.registry;
  qdisc

(* Contributing-link identification from sampled drop history, as in
   Mahajan et al.: the router examines a bounded sample of recent drops and
   attributes each to the incoming link it arrived on.  We emulate the
   sample by drawing [samples] attributions from the true per-link arrival
   distribution.  With few attackers the heavy links stand clearly above
   the per-link average and are clipped; with many attackers every link's
   expected sample count is O(1), so identification blurs — legitimate
   links get clipped and many attack links escape.  That estimation noise,
   not the allocation arithmetic, is what makes pushback degrade at high
   attacker counts (TVA paper Sec. 5.1). *)
let sample_contributors rng ~samples contributions =
  let total = List.fold_left (fun acc (_, d) -> acc +. d) 0. contributions in
  let counts = Array.make (List.length contributions) 0 in
  if total > 0. then
    for _ = 1 to samples do
      let x = Rng.float rng total in
      let rec pick i acc = function
        | [] -> ()
        | (_, d) :: rest ->
            if x < acc +. d then counts.(i) <- counts.(i) + 1 else pick (i + 1) (acc +. d) rest
      in
      pick 0 0. contributions
    done;
  counts

let set_limit t st in_link ~dst ~rate =
  match link_state_of t (Net.link_qdisc in_link) with
  | None -> ()
  | Some ls ->
      let key = (Net.link_id in_link, dst) in
      let already = List.mem key st.installed in
      (* A pushback daemon maintains a bounded number of rate-limit
         sessions; past the cap, further contributing links go unlimited —
         the reason the defense loses ground against very wide floods. *)
      if already || List.length st.installed < t.max_filters then begin
        Hashtbl.replace ls.limits dst { rate; tokens = rate *. 0.25; last = Sim.now t.sim };
        Hashtbl.replace t.ages key 0;
        if not already then st.installed <- key :: st.installed
      end

let clear_limit t st in_link ~dst =
  match link_state_of t (Net.link_qdisc in_link) with
  | None -> ()
  | Some ls ->
      let key = (Net.link_id in_link, dst) in
      Hashtbl.remove ls.limits dst;
      Hashtbl.remove t.ages key;
      st.installed <- List.filter (fun k -> k <> key) st.installed

let control_link t st out_link =
  match link_state_of t (Net.link_qdisc out_link) with
  | None -> ()
  | Some ds ->
      let total = ds.window_tx + ds.window_drops in
      let drop_rate = if total = 0 then 0. else float_of_int ds.window_drops /. float_of_int total in
      if drop_rate > t.drop_threshold then begin
        let dst_star =
          Hashtbl.fold
            (fun dst n acc ->
              match acc with Some (_, best) when best >= n -> acc | _ -> Some (dst, n))
            ds.drops_by_dst None
        in
        match dst_star with
        | None -> ()
        | Some (dst, _) ->
            let contributions =
              List.filter_map
                (fun in_link ->
                  match Hashtbl.find_opt st.arrivals (Net.link_id in_link, dst) with
                  | Some bytes when bytes > 0 -> Some (in_link, float_of_int bytes /. t.interval)
                  | Some _ | None -> None)
                (Net.links_into st.node)
            in
            let other_bytes =
              Hashtbl.fold
                (fun (_, d) bytes acc -> if d <> dst then acc + bytes else acc)
                st.arrivals 0
            in
            let other_rate = float_of_int other_bytes /. t.interval in
            let capacity = Net.link_bandwidth out_link /. 8. in
            let limit_total = Float.max 0. ((capacity *. (1. -. t.headroom)) -. other_rate) in
            (* Identify heavy contributors from a bounded drop-history
               sample (estimation noise is what blurs identification at
               high attacker counts), then clip the minimal top set whose
               limiting brings the aggregate under the limit. *)
            (* Mahajan's drop history is a bounded sample; 250 attributions
               separate heavy links cleanly when there are tens of sources
               and blur once there are a hundred similar ones.  Ties are
               broken randomly: equally-sampled links are genuinely
               indistinguishable to the router. *)
            let samples = min 250 (max 1 ds.window_drops) in
            let counts = sample_contributors (Sim.rng t.sim) ~samples contributions in
            let total_rate = List.fold_left (fun acc (_, d) -> acc +. d) 0. contributions in
            let est_rate c = float_of_int c /. float_of_int samples *. total_rate in
            let rng = Sim.rng t.sim in
            let by_count =
              List.map fst
                (List.sort
                   (fun ((_, c1), t1) ((_, c2), t2) ->
                     match compare c2 c1 with 0 -> compare t1 t2 | cmp -> cmp)
                   (List.map2
                      (fun (link, _) c -> ((link, c), Rng.bits64 rng))
                      contributions (Array.to_list counts)))
            in
            (* Greedily clip the largest estimated senders until what
               remains unclipped fits under the limit. *)
            let rec split clipped unclipped_rate = function
              | [] -> (clipped, unclipped_rate)
              | ((_, c) as entry) :: rest ->
                  if unclipped_rate <= limit_total then (clipped, unclipped_rate)
                  else split (entry :: clipped) (unclipped_rate -. est_rate c) rest
            in
            let clipped, unclipped_rate = split [] total_rate by_count in
            let m = List.length clipped in
            let share =
              if m = 0 then limit_total
              else Float.max 1000. ((limit_total -. unclipped_rate) /. float_of_int m)
            in
            (* Only install/refresh limits; release is age-based in [tick].
               Rates measured here are post-shaping for already-limited
               links, so "this link now looks innocent" must never clear a
               filter — that misreading is what causes limit/flood
               oscillation.  Heaviest contributors first, so they win the
               bounded filter slots. *)
            List.iter
              (fun (in_link, _) -> set_limit t st in_link ~dst ~rate:share)
              (List.rev clipped)
      end

let tick t st =
  List.iter (control_link t st) (Net.links_out_of st.node);
  (* A limited link whose queue is backlogged still has pre-limit demand
     above its allocation: keep its filter pinned. *)
  List.iter
    (fun ((lid, _) as key) ->
      match List.find_opt (fun l -> Net.link_id l = lid) (Net.links_into st.node) with
      | Some in_link when Qdisc.packet_count (Net.link_qdisc in_link) > 0 ->
          Hashtbl.replace t.ages key 0
      | Some _ | None -> ())
    st.installed;
  (* Withdraw limits that have gone unconfirmed for several intervals. *)
  let stale =
    List.filter
      (fun key ->
        match Hashtbl.find_opt t.ages key with
        | None -> true
        | Some age ->
            Hashtbl.replace t.ages key (age + 1);
            age + 1 > t.release_after)
      st.installed
  in
  List.iter
    (fun ((lid, dst) as key) ->
      (match
         List.find_opt (fun l -> Net.link_id l = lid) (Net.links_into st.node)
       with
      | Some in_link -> clear_limit t st in_link ~dst
      | None -> ());
      Hashtbl.remove t.ages key)
    stale;
  (* Fresh measurement window for this node's own queues. *)
  Hashtbl.reset st.arrivals;
  List.iter
    (fun out_link ->
      match link_state_of t (Net.link_qdisc out_link) with
      | None -> ()
      | Some ds ->
          ds.window_tx <- 0;
          ds.window_drops <- 0;
          Hashtbl.reset ds.drops_by_dst)
    (Net.links_out_of st.node)

let handler st node ~in_link (p : Wire.Packet.t) =
  (match in_link with
  | None -> ()
  | Some l ->
      let key = (Net.link_id l, Wire.Addr.to_int p.Wire.Packet.dst) in
      Hashtbl.replace st.arrivals key
        (Wire.Packet.size p + Option.value ~default:0 (Hashtbl.find_opt st.arrivals key)));
  Net.forward node p

let install t node =
  let st = { node; arrivals = Hashtbl.create 64; installed = [] } in
  t.nodes <- st :: t.nodes;
  Net.set_handler node (handler st);
  let rec loop () =
    Sim.schedule ~kind:Sim.Kind.agent t.sim ~delay:t.interval (fun () ->
        tick t st;
        loop ())
  in
  loop ()

let active_filters t = List.fold_left (fun acc st -> acc + List.length st.installed) 0 t.nodes

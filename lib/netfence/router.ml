type params = {
  control_interval : float;
  feedback_timeout : float;
  token_lifetime : int;
  initial_fraction : float;
  incr_fraction : float;
  decr_factor : float;
  min_rate_bps : float;
  burst_bytes : int;
}

let default_params =
  {
    control_interval = 0.25;
    feedback_timeout = 1.0;
    token_lifetime = 2;
    initial_fraction = 1. /. 16.;
    incr_fraction = 1. /. 200.;
    decr_factor = 0.5;
    min_rate_bps = 8e3;
    burst_bytes = 32 * 1024;
  }

(* Per-sender AIMD state at the access router.  [pending] is
   the worst feedback seen this control interval ([Decr] wins);
   [last_feedback] is the last time a *valid* token arrived, so a sender
   that stops presenting feedback while still sending decays as if every
   interval said [Decr]. *)
type aimd = {
  sender : int; (* the sender's address, the key of its memo slot *)
  policer : Policer.t;
  mutable last_adjust : float;
  mutable last_feedback : float;
  mutable pending : Wire.Nf_feedback.action option;
}

(* Per-flow memos (DESIGN.md Sec. 9), direct-mapped.  A minted token is
   a pure function of (src, ts, action, epoch key) and a validation
   verdict of (src, token, epoch key), for this router's id.  A [tokens]
   slot holds the sender (-1 when empty), the epoch key, compared by
   physical identity since [Crypto.Secret] returns one string per epoch
   and a rotation makes a new one, and the token.  [senders] caches the
   policing table's entries, [no_sender] filling its empty slots. *)
type tokens = { src : int array; key : string array; tok : Wire.Nf_feedback.token array }

type memo = {
  minted : tokens;
  checked : tokens;
  valid : bool array; (* the verdict on [checked]'s token *)
  senders : aimd array;
}

let no_token = { Wire.Nf_feedback.nf_router = 0; nf_ts = 0; nf_action = Incr; nf_mac = 0L }

let no_sender =
  {
    sender = -1;
    policer = Policer.create ~rate_bps:1. ~burst_bytes:1;
    last_adjust = 0.;
    last_feedback = 0.;
    pending = None;
  }

let tokens n = { src = Array.make n (-1); key = Array.make n ""; tok = Array.make n no_token }

let new_memo () =
  let n = Crypto.Mac_memo.size in
  {
    minted = tokens n;
    checked = tokens n;
    valid = Array.make n false;
    senders = Array.make n no_sender;
  }

(* What [create] installs: a miss on every probe, replaced by a real
   memo on the router's first packet. *)
let unallocated = { minted = tokens 0; checked = tokens 0; valid = [||]; senders = [||] }

let store c i ~src ~key tok =
  c.src.(i) <- src;
  c.key.(i) <- key;
  c.tok.(i) <- tok

type t = {
  params : params;
  secret_master : string;
  mutable secret : Crypto.Secret.t;
  mutable rotations : int;
  router_id : int;
  sim : Sim.t;
  link_bps : float;
  senders : aimd Wire.Addr.Tbl.t;
  (* indexed by outgoing link id: the queue whose depth judges congestion
     (the regular-channel qdisc if found, else the link's) and the
     threshold in packets, resolved on the link's first packet *)
  mutable cong : (Qdisc.t * int) option array;
  mutable memo : memo;
  obs : Obs.Counters.t;
  (* Scratch buffer for token preimages: "nf|" once, then per MAC the
     fields [mint] and [validate] bind. *)
  preimage : Bytes.t;
}

let preimage_tag = "nf|"

let create ?(params = default_params) ?(obs = Obs.Counters.nop) ~secret_master ~router_id ~sim
    ~link_bps () =
  {
    params;
    secret_master;
    secret = Crypto.Secret.create ~master:secret_master;
    rotations = 0;
    router_id;
    sim;
    link_bps;
    senders = Wire.Addr.Tbl.create 64;
    cong = [||];
    memo = unallocated;
    obs;
    preimage =
      Bytes.extend (Bytes.of_string preimage_tag) 0 (4 * (Crypto.Preimage.max_decimal_len + 1));
  }

let sender_count t = Wire.Addr.Tbl.length t.senders

let sender_rates t =
  Wire.Addr.Tbl.fold (fun src st acc -> (src, Policer.rate_bps st.policer) :: acc) t.senders []
  |> List.sort (fun (a, _) (b, _) -> Wire.Addr.compare a b)

let memo t =
  if t.memo == unallocated then t.memo <- new_memo ();
  t.memo

let flush_senders t =
  Wire.Addr.Tbl.reset t.senders;
  Array.fill t.memo.senders 0 (Array.length t.memo.senders) no_sender

let rotate_secret t =
  t.rotations <- t.rotations + 1;
  t.secret <- Crypto.Secret.create ~master:(t.secret_master ^ "#" ^ string_of_int t.rotations)

(* --- feedback tokens ------------------------------------------------- *)

(* The MAC of ["nf|src|router|ts|action"], each field in decimal as
   [%d] prints it, written over the tag already in [t.preimage]. *)
let token_mac t ~key ~src ~router ~ts ~action =
  let b = t.preimage in
  let pos = Crypto.Preimage.put_decimal b (String.length preimage_tag) (Wire.Addr.to_int src) in
  let pos = Crypto.Preimage.put_char b pos '|' in
  let pos = Crypto.Preimage.put_decimal b pos router in
  let pos = Crypto.Preimage.put_char b pos '|' in
  let pos = Crypto.Preimage.put_decimal b pos ts in
  let pos = Crypto.Preimage.put_char b pos '|' in
  let len = Crypto.Preimage.put_decimal b pos (Wire.Nf_feedback.action_bit action) in
  Crypto.Keyed_hash.Fast.mac56_bytes ~key b ~len

let mint t ~now ~src action =
  let ts = Crypto.Secret.timestamp ~now in
  let key = Crypto.Secret.issuing_secret t.secret ~now in
  let c = (memo t).minted in
  let s = Wire.Addr.to_int src in
  let i = Crypto.Mac_memo.slot s ts (Wire.Nf_feedback.action_bit action) in
  let tok = c.tok.(i) in
  if
    c.src.(i) = s && c.key.(i) == key && tok.Wire.Nf_feedback.nf_ts = ts
    && tok.Wire.Nf_feedback.nf_action == action
  then tok
  else begin
    let mac = token_mac t ~key ~src ~router:t.router_id ~ts ~action in
    let tok =
      { Wire.Nf_feedback.nf_router = t.router_id; nf_ts = ts; nf_action = action; nf_mac = mac }
    in
    store c i ~src:s ~key tok;
    tok
  end

(* Whether [tok]'s MAC checks out for [src] under [key].  The slot is the
   sender's alone: a sender presents one token at a time, and senders'
   tokens spread no better than their addresses do. *)
let mac_valid t ~key (tok : Wire.Nf_feedback.token) ~src =
  let m = memo t in
  let c = m.checked in
  let s = Wire.Addr.to_int src in
  let i = Crypto.Mac_memo.slot s 0 0 in
  let seen = c.tok.(i) in
  if
    c.src.(i) = s && c.key.(i) == key
    && seen.Wire.Nf_feedback.nf_router = tok.Wire.Nf_feedback.nf_router
    && seen.Wire.Nf_feedback.nf_ts = tok.Wire.Nf_feedback.nf_ts
    && seen.Wire.Nf_feedback.nf_action == tok.Wire.Nf_feedback.nf_action
    && Int64.equal seen.Wire.Nf_feedback.nf_mac tok.Wire.Nf_feedback.nf_mac
  then m.valid.(i)
  else begin
    let ok =
      Int64.equal tok.Wire.Nf_feedback.nf_mac
        (token_mac t ~key ~src ~router:tok.Wire.Nf_feedback.nf_router
           ~ts:tok.Wire.Nf_feedback.nf_ts ~action:tok.Wire.Nf_feedback.nf_action)
    in
    store c i ~src:s ~key tok;
    m.valid.(i) <- ok;
    ok
  end

(* All routers in a run validate each other's tokens: the shared
   [secret_master] models NetFence's pairwise inter-AS key agreement
   (DESIGN.md Sec. 16), so a token minted at the bottleneck checks out at
   the sender's access router without any per-pair state here. *)
let validate t ~now (tok : Wire.Nf_feedback.token) ~src =
  let reject () =
    Obs.Counters.incr t.obs Obs.Event.Nf_token_rejected;
    None
  in
  let age = (Crypto.Secret.timestamp ~now - tok.Wire.Nf_feedback.nf_ts) land 0xff in
  if age > t.params.token_lifetime then reject ()
  else
    let key = Crypto.Secret.validating_secret t.secret ~now ~ts:tok.Wire.Nf_feedback.nf_ts in
    if String.length key = 0 then reject ()
    else if mac_valid t ~key tok ~src then Some tok.Wire.Nf_feedback.nf_action
    else reject ()

(* --- access-side AIMD policing --------------------------------------- *)

(* One entry per sender, whichever bottleneck its feedback names.  The
   token's minting router moves as congestion does: bootstrap packets
   carry none, uncongested paths echo the last hop's stamp, and a
   congested bottleneck takes over via the sticky Decr.  Keeping one
   continuous rate history per sender means an Incr cannot grow a
   different limiter than the one the bottleneck's Decr shrank. *)
let sender_state t ~now ~src =
  let m = memo t in
  let s = Wire.Addr.to_int src in
  let i = Crypto.Mac_memo.slot s 0 0 in
  let st = m.senders.(i) in
  if st.sender = s then st
  else
    let st =
      match Wire.Addr.Tbl.find t.senders src with
      | st -> st
      | exception Not_found ->
          let st =
            {
              sender = s;
              policer =
                Policer.create
                  ~rate_bps:(t.params.initial_fraction *. t.link_bps)
                  ~burst_bytes:t.params.burst_bytes;
              last_adjust = now;
              last_feedback = now;
              pending = None;
            }
          in
          Wire.Addr.Tbl.add t.senders src st;
          st
    in
    m.senders.(i) <- st;
    st

let adjust t st ~now =
  if now -. st.last_adjust >= t.params.control_interval then begin
    let action =
      if now -. st.last_feedback > t.params.feedback_timeout then Some Wire.Nf_feedback.Decr
      else st.pending
    in
    (match action with
    | Some Wire.Nf_feedback.Incr ->
        Policer.set_rate st.policer
          ~rate_bps:
            (Float.min t.link_bps
               (Policer.rate_bps st.policer +. (t.params.incr_fraction *. t.link_bps)))
    | Some Wire.Nf_feedback.Decr ->
        Policer.set_rate st.policer
          ~rate_bps:
            (Float.max t.params.min_rate_bps
               (Policer.rate_bps st.policer *. t.params.decr_factor))
    | None -> ());
    st.pending <- None;
    st.last_adjust <- now
  end

(* [true] when the packet conforms and may be forwarded. *)
let police t ~now ~src (nf : Wire.Nf_feedback.t) ~bytes =
  let feedback =
    match nf.Wire.Nf_feedback.token with None -> None | Some tok -> validate t ~now tok ~src
  in
  let st = sender_state t ~now ~src in
  (match feedback with
  | Some action ->
      st.last_feedback <- now;
      st.pending <-
        (match (st.pending, action) with
        | Some Wire.Nf_feedback.Decr, _ | _, Wire.Nf_feedback.Decr -> Some Wire.Nf_feedback.Decr
        | _, Wire.Nf_feedback.Incr -> Some Wire.Nf_feedback.Incr)
  | None -> ());
  adjust t st ~now;
  Policer.admit st.policer ~now ~bytes

(* --- forward-path congestion stamping -------------------------------- *)

let regular_qdisc_name = "netfence-reg"

(* Congestion is judged on the regular channel's queue only: the legacy
   class fills under a legacy flood, and charging that backlog to
   feedback-carrying senders would collapse exactly the traffic NetFence
   protects. *)
let resolve_site t out =
  let id = Net.link_id out in
  let q = Net.link_qdisc out in
  let reg = ref None in
  Qdisc.iter_nested q (fun sub ->
      if String.equal sub.Qdisc.name regular_qdisc_name && Option.is_none !reg then
        reg := Some sub);
  let capacity =
    Droptail.default_capacity_packets ~bandwidth_bps:(Net.link_bandwidth out) ~delay:0.06
  in
  let site = (Option.value !reg ~default:q, max 4 (capacity / 4)) in
  if id >= Array.length t.cong then begin
    let cong = Array.make (max (id + 1) (2 * Array.length t.cong)) None in
    Array.blit t.cong 0 cong 0 (Array.length t.cong);
    t.cong <- cong
  end;
  t.cong.(id) <- Some site;
  site

let congestion_site t out =
  let id = Net.link_id out in
  match if id < Array.length t.cong then t.cong.(id) else None with
  | Some site -> site
  | None -> resolve_site t out

let stamp t out ~now (p : Wire.Packet.t) (nf : Wire.Nf_feedback.t) =
  let q, threshold = congestion_site t out in
  let action =
    if Qdisc.packet_count q >= threshold then Wire.Nf_feedback.Decr else Wire.Nf_feedback.Incr
  in
  Wire.Nf_feedback.stamp nf (mint t ~now ~src:p.Wire.Packet.src action)

(* --- the router datapath --------------------------------------------- *)

let from_attached_host in_link =
  match in_link with
  | None -> false
  | Some l -> Option.is_some (Net.node_addr (Net.link_src l))

let handler t node ~in_link (p : Wire.Packet.t) =
  Obs.Counters.incr t.obs Obs.Event.Packets_in;
  let now = Sim.now t.sim in
  match p.Wire.Packet.nf with
  | None ->
      (* Legacy channel: no policing state, forwarded at low priority by
         [make_qdisc]'s classifier. *)
      Net.forward node p
  | Some nf ->
      let conform =
        if from_attached_host in_link then
          police t ~now ~src:p.Wire.Packet.src nf ~bytes:(Wire.Packet.size p)
        else true
      in
      if conform then begin
        (* One route lookup serves the stamp and the forward; with no
           route, [Net.forward] charges the hop and reports it. *)
        match Net.route_for node p.Wire.Packet.dst with
        | Some out ->
            stamp t out ~now p nf;
            Net.forward_on node out p
        | None -> Net.forward node p
      end
      else Obs.Counters.incr t.obs Obs.Event.Nf_policed

(* --- link scheduler --------------------------------------------------- *)

let classify (p : Wire.Packet.t) =
  match p.Wire.Packet.nf with Some _ -> 0 (* regular *) | None -> 1 (* legacy *)

let make_qdisc ~bandwidth_bps =
  let packets = Droptail.default_capacity_packets ~bandwidth_bps ~delay:0.06 in
  let bytes = Droptail.default_capacity ~bandwidth_bps ~delay:0.06 in
  let regular =
    Droptail.create ~name:regular_qdisc_name ~capacity_packets:packets ~capacity_bytes:bytes ()
  in
  let legacy =
    Droptail.create ~name:"netfence-legacy" ~capacity_packets:packets ~capacity_bytes:bytes ()
  in
  Priority.create ~name:"netfence-link" ~classify ~classes:[ regular; legacy ] ()

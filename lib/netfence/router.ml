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
  policer : Policer.t;
  mutable last_adjust : float;
  mutable last_feedback : float;
  mutable pending : Wire.Nf_feedback.action option;
}

type t = {
  params : params;
  secret_master : string;
  mutable secret : Crypto.Secret.t;
  mutable rotations : int;
  router_id : int;
  sim : Sim.t;
  link_bps : float;
  senders : aimd Wire.Addr.Tbl.t;
  (* outgoing link id -> (regular-channel qdisc if found, congestion
     threshold in packets), resolved once per link *)
  cong : (int, Qdisc.t option * int) Hashtbl.t;
  mutable policed : int;
  mutable rejected : int;
  (* Scratch buffer for token preimages: "nf|" once, then per MAC the
     fields [mint] and [validate] bind. *)
  preimage : Bytes.t;
}

let preimage_tag = "nf|"

let create ?(params = default_params) ~secret_master ~router_id ~sim ~link_bps () =
  {
    params;
    secret_master;
    secret = Crypto.Secret.create ~master:secret_master;
    rotations = 0;
    router_id;
    sim;
    link_bps;
    senders = Wire.Addr.Tbl.create 64;
    cong = Hashtbl.create 8;
    policed = 0;
    rejected = 0;
    preimage =
      Bytes.extend (Bytes.of_string preimage_tag) 0 (4 * (Crypto.Preimage.max_decimal_len + 1));
  }

let policed t = t.policed
let rejected t = t.rejected
let sender_count t = Wire.Addr.Tbl.length t.senders

let sender_rates t =
  Wire.Addr.Tbl.fold (fun src st acc -> (src, Policer.rate_bps st.policer) :: acc) t.senders []
  |> List.sort (fun (a, _) (b, _) -> Wire.Addr.compare a b)

let flush_senders t = Wire.Addr.Tbl.reset t.senders

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
  let mac = token_mac t ~key ~src ~router:t.router_id ~ts ~action in
  { Wire.Nf_feedback.nf_router = t.router_id; nf_ts = ts; nf_action = action; nf_mac = mac }

(* All routers in a run validate each other's tokens: the shared
   [secret_master] models NetFence's pairwise inter-AS key agreement
   (DESIGN.md Sec. 16), so a token minted at the bottleneck checks out at
   the sender's access router without any per-pair state here. *)
let validate t ~now (tok : Wire.Nf_feedback.token) ~src =
  let reject () =
    t.rejected <- t.rejected + 1;
    None
  in
  let age = (Crypto.Secret.timestamp ~now - tok.Wire.Nf_feedback.nf_ts) land 0xff in
  if age > t.params.token_lifetime then reject ()
  else
    let key = Crypto.Secret.validating_secret t.secret ~now ~ts:tok.Wire.Nf_feedback.nf_ts in
    if String.length key = 0 then reject ()
    else
      let expect =
        token_mac t ~key ~src ~router:tok.Wire.Nf_feedback.nf_router
          ~ts:tok.Wire.Nf_feedback.nf_ts ~action:tok.Wire.Nf_feedback.nf_action
      in
      if Int64.equal expect tok.Wire.Nf_feedback.nf_mac then Some tok.Wire.Nf_feedback.nf_action
      else reject ()

(* --- access-side AIMD policing --------------------------------------- *)

(* One entry per sender, whichever bottleneck its feedback names.  The
   token's minting router moves as congestion does: bootstrap packets
   carry none, uncongested paths echo the last hop's stamp, and a
   congested bottleneck takes over via the sticky Decr.  Keeping one
   continuous rate history per sender means an Incr cannot grow a
   different limiter than the one the bottleneck's Decr shrank. *)
let sender_state t ~now ~src =
  match Wire.Addr.Tbl.find t.senders src with
  | st -> st
  | exception Not_found ->
      let st =
        {
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
let congestion_site t out =
  let id = Net.link_id out in
  match Hashtbl.find_opt t.cong id with
  | Some site -> site
  | None ->
      let q = Net.link_qdisc out in
      let reg = ref None in
      Qdisc.iter_nested q (fun sub ->
          if String.equal sub.Qdisc.name regular_qdisc_name && !reg = None then reg := Some sub);
      let capacity =
        Droptail.default_capacity_packets ~bandwidth_bps:(Net.link_bandwidth out) ~delay:0.06
      in
      let site = (!reg, max 4 (capacity / 4)) in
      Hashtbl.add t.cong id site;
      site

let stamp t node ~now (p : Wire.Packet.t) (nf : Wire.Nf_feedback.t) =
  match Net.route_for node p.Wire.Packet.dst with
  | None -> ()
  | Some out ->
      let reg, threshold = congestion_site t out in
      let depth =
        match reg with Some q -> Qdisc.packet_count q | None -> Qdisc.packet_count (Net.link_qdisc out)
      in
      let action =
        if depth >= threshold then Wire.Nf_feedback.Decr else Wire.Nf_feedback.Incr
      in
      Wire.Nf_feedback.stamp nf (mint t ~now ~src:p.Wire.Packet.src action)

(* --- the router datapath --------------------------------------------- *)

let from_attached_host in_link =
  match in_link with
  | None -> false
  | Some l -> Net.node_addr (Net.link_src l) <> None

let handler t node ~in_link (p : Wire.Packet.t) =
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
        stamp t node ~now p nf;
        Net.forward node p
      end
      else t.policed <- t.policed + 1

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

let default_rotation_period = 128.

(* The marking preimage is [secret_master ^ router_id ^ "|" ^ epoch ^ "|"]
   followed by the 4-byte wire forms of src and dst.  It is written into a
   per-router scratch buffer: the text prefix once per epoch, the two
   addresses per packet, so a marking allocates only the boxed hash. *)
type t = {
  rotation : float;
  router_id : int;
  sim : Sim.t;
  mutable dropped_dta : int;
  preimage : Bytes.t;
  id_end : int; (* end of [secret_master ^ router_id ^ "|"] *)
  mutable prefix_epoch : int;
  mutable prefix_end : int; (* end of the epoch's text prefix *)
}

let write_epoch t epoch =
  let pos = Crypto.Preimage.put_decimal t.preimage t.id_end epoch in
  t.prefix_end <- Crypto.Preimage.put_char t.preimage pos '|';
  t.prefix_epoch <- epoch

let create ?(rotation_period = default_rotation_period) ~secret_master ~router_id ~sim () =
  let preimage =
    Bytes.create (String.length secret_master + (2 * (Crypto.Preimage.max_decimal_len + 1)) + 8)
  in
  let pos = Crypto.Preimage.put_string preimage 0 secret_master in
  let pos = Crypto.Preimage.put_decimal preimage pos router_id in
  let id_end = Crypto.Preimage.put_char preimage pos '|' in
  let t =
    {
      rotation = rotation_period;
      router_id;
      sim;
      dropped_dta = 0;
      preimage;
      id_end;
      prefix_epoch = 0;
      prefix_end = id_end;
    }
  in
  write_epoch t 0;
  t

let dropped_dta t = t.dropped_dta

let epoch t ~now = int_of_float (floor (now /. t.rotation))

let bits_for t ~epoch ~src ~dst =
  if epoch <> t.prefix_epoch then write_epoch t epoch;
  let pos = Crypto.Preimage.put_be32 t.preimage t.prefix_end (Wire.Addr.to_int src) in
  let len = Crypto.Preimage.put_be32 t.preimage pos (Wire.Addr.to_int dst) in
  Int64.to_int (Crypto.Siphash.mac_bytes ~key:"SIFF marking key" t.preimage ~len)
  land ((1 lsl Wire.Siff_marking.bits_per_router) - 1)

let marking_bits t ~now ~src ~dst = bits_for t ~epoch:(epoch t ~now) ~src ~dst

let verify t ~now ~src ~dst ~bits =
  let e = epoch t ~now in
  bits = bits_for t ~epoch:e ~src ~dst || (e > 0 && bits = bits_for t ~epoch:(e - 1) ~src ~dst)

let handler t node ~in_link:_ (p : Wire.Packet.t) =
  let now = Sim.now t.sim in
  match p.Wire.Packet.siff with
  | None -> Net.forward node p (* legacy *)
  | Some m -> begin
      match m.Wire.Siff_marking.flavor with
      | Wire.Siff_marking.Exp ->
          Wire.Siff_marking.add_marking m ~router:t.router_id
            ~bits:(marking_bits t ~now ~src:p.Wire.Packet.src ~dst:p.Wire.Packet.dst);
          Net.forward node p
      | Wire.Siff_marking.Dta -> begin
          match Wire.Siff_marking.marking_of m ~router:t.router_id with
          | Some bits
            when verify t ~now ~src:p.Wire.Packet.src ~dst:p.Wire.Packet.dst ~bits ->
              Net.forward node p
          | Some _ | None ->
              (* SIFF drops unverifiable data packets outright. *)
              t.dropped_dta <- t.dropped_dta + 1
        end
    end

let classify (p : Wire.Packet.t) =
  match p.Wire.Packet.siff with
  | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Dta; _ } -> 0 (* high priority *)
  | Some { Wire.Siff_marking.flavor = Wire.Siff_marking.Exp; _ } | None -> 1

let make_qdisc ~bandwidth_bps =
  let packets = Droptail.default_capacity_packets ~bandwidth_bps ~delay:0.06 in
  let bytes = Droptail.default_capacity ~bandwidth_bps ~delay:0.06 in
  let high =
    Droptail.create ~name:"siff-dta" ~capacity_packets:packets ~capacity_bytes:bytes ()
  in
  let low =
    Droptail.create ~name:"siff-low" ~capacity_packets:packets ~capacity_bytes:bytes ()
  in
  Priority.create ~name:"siff-link" ~classify ~classes:[ high; low ] ()

(* Thin constructor: the token-bucket datapath lives in [Qdisc], which
   meters with a [Policer] (fixed-point tokens, no boxing on refill — see
   DESIGN.md Sec. 9). *)

let create ?(name = "token-bucket") ?(mtu = 1500) ~rate_bps ~burst_bytes ~inner () =
  if mtu <= 0 then invalid_arg "Token_bucket.create: mtu must be positive";
  Qdisc.make ~name
    (Qdisc.Token_bucket
       {
         Qdisc.tb_meter = Policer.create ~rate_bps ~burst_bytes;
         tb_horizon = min burst_bytes mtu;
         tb_staged = Qdisc.none;
         tb_inner = inner;
       })

type keyed = (module Crypto.Keyed_hash.S)

(* The preimage layouts live in [Crypto.Keyed_hash] ([precap_preimage] /
   [cap_preimage]); here we call the fixed-preimage entry points so the
   per-packet path builds no Buffer or string.  The secret arrives as the
   MAC key, not as part of the message, and each epoch secret is prepared
   once through [cache] rather than per call. *)

let mint_precap ~hash:(module H : Crypto.Keyed_hash.S) ~cache ~secret ~now ~src ~dst =
  let ts = Crypto.Secret.timestamp ~now in
  let key = Crypto.Secret.issuing_secret secret ~now in
  let prep = Crypto.Keyed_hash.prepared_of (module H) cache key in
  {
    Wire.Cap_shim.ts;
    hash = H.mac56_precap_p ~prep ~src:(Wire.Addr.to_int src) ~dst:(Wire.Addr.to_int dst) ~ts;
  }

(* The capability hash is unkeyed in spirit — any party holding the
   pre-capability can compute it — but our Keyed_hash interface wants a
   key, so we use a public constant. *)
let public_key = "TVA public hash!"

let cap_of_precap ~hash:(module H : Crypto.Keyed_hash.S) ~(precap : Wire.Cap_shim.cap) ~n_kb ~t_sec =
  {
    Wire.Cap_shim.ts = precap.Wire.Cap_shim.ts;
    hash =
      H.mac56_cap_p ~prep:(H.prepare public_key) ~precap_ts:precap.Wire.Cap_shim.ts
        ~precap_hash:precap.Wire.Cap_shim.hash ~n_kb ~t_sec;
  }

type verdict = Valid | Expired | Bad_hash

let pp_verdict fmt = function
  | Valid -> Format.pp_print_string fmt "valid"
  | Expired -> Format.pp_print_string fmt "expired"
  | Bad_hash -> Format.pp_print_string fmt "bad-hash"

(* Age on the modulo-256 clock.  Values above half the clock period are
   indistinguishable from the future and treated as expired; the paper
   requires T <= half the rollover for exactly this reason. *)
let[@inline] mod_age ~now ~ts =
  let now_ts = Crypto.Secret.timestamp ~now in
  (now_ts - ts + 256) mod 256

let[@inline] expired ~now ~ts ~t_sec =
  let age = mod_age ~now ~ts in
  age > t_sec

let validate ~hash:(module H : Crypto.Keyed_hash.S) ~cache ~secret ~now ~src ~dst ~n_kb ~t_sec
    (cap : Wire.Cap_shim.cap) =
  let ts = cap.Wire.Cap_shim.ts in
  if expired ~now ~ts ~t_sec then Expired
  else begin
    let key = Crypto.Secret.validating_secret secret ~now ~ts in
    if String.length key = 0 then Bad_hash
    else begin
      let prep = Crypto.Keyed_hash.prepared_of (module H) cache key in
      let ph =
        H.mac56_precap_p ~prep ~src:(Wire.Addr.to_int src) ~dst:(Wire.Addr.to_int dst) ~ts
      in
      let pub = Crypto.Keyed_hash.prepared_of (module H) cache public_key in
      let expect = H.mac56_cap_p ~prep:pub ~precap_ts:ts ~precap_hash:ph ~n_kb ~t_sec in
      if expect = cap.Wire.Cap_shim.hash then Valid else Bad_hash
    end
  end

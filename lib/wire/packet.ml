type body = Raw of int | Tcp of Tcp_segment.t

type t = {
  id : int;
  src : Addr.t;
  dst : Addr.t;
  body : body;
  mutable shim : Cap_shim.t option;
  mutable siff : Siff_marking.t option;
  mutable nf : Nf_feedback.t option;
  mutable hops : int;
}

let default_hops = 64

(* Packet ids exist for debugging and physical-identity checks only — no
   simulation decision reads them — so a process-wide atomic keeps them
   unique (and race-free) across the parallel sweep engine's domains
   without threatening run determinism. *)
let counter = Atomic.make 0

let make ?shim ?siff ?nf ~src ~dst body =
  let id = Atomic.fetch_and_add counter 1 + 1 in
  { id; src; dst; body; shim; siff; nf; hops = default_hops }

let copy t =
  let id = Atomic.fetch_and_add counter 1 + 1 in
  {
    t with
    id;
    shim = (match t.shim with None -> None | Some s -> Some (Cap_shim.copy s));
    siff = (match t.siff with None -> None | Some s -> Some (Siff_marking.copy s));
    nf = (match t.nf with None -> None | Some s -> Some (Nf_feedback.copy s));
  }

let[@inline] body_size = function Raw n -> n | Tcp seg -> Tcp_segment.wire_size seg

let[@inline] size t =
  body_size t.body
  + (match t.shim with None -> 0 | Some s -> Cap_shim.wire_size s)
  + (match t.siff with None -> 0 | Some s -> Siff_marking.wire_size s)
  + (match t.nf with None -> 0 | Some s -> Nf_feedback.wire_size s)

let is_tcp t = match t.body with Tcp _ -> true | Raw _ -> false
let tcp t = match t.body with Tcp seg -> Some seg | Raw _ -> None

let flow_key_of ~src ~dst = (Addr.to_int src * 1_048_573) lxor Addr.to_int dst
let flow_key t = flow_key_of ~src:t.src ~dst:t.dst
let reverse_flow_key t = flow_key_of ~src:t.dst ~dst:t.src

let pp fmt t =
  let pp_body fmt = function
    | Raw n -> Format.fprintf fmt "raw(%dB)" n
    | Tcp seg -> Tcp_segment.pp fmt seg
  in
  Format.fprintf fmt "@[<h>#%d %a->%a %a size=%d%a@]" t.id Addr.pp t.src Addr.pp t.dst pp_body
    t.body (size t)
    (fun fmt -> function None -> () | Some s -> Format.fprintf fmt " [%a]" Cap_shim.pp s)
    t.shim

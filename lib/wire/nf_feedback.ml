type action = Incr | Decr

type token = { nf_router : int; nf_ts : int; nf_action : action; nf_mac : int64 }

type t = {
  mutable token : token option;
  mutable stamped : token option;
  mutable returned : token option;
}

let empty () = { token = None; stamped = None; returned = None }
let with_token tok = { token = Some tok; stamped = None; returned = None }
let copy t = { token = t.token; stamped = t.stamped; returned = t.returned }

let action_bit = function Incr -> 0 | Decr -> 1

(* The congestion feedback is monotone within a control interval: once any
   router on the path says "decrease", no later router may soften it back
   to "increase".  Stamping goes through this join so the property holds by
   construction. *)
let stamp t tok =
  match t.stamped with
  | Some { nf_action = Decr; _ } -> ()
  | _ -> t.stamped <- Some tok

let token_wire_size = 12
let base_wire_size = 4

let wire_size t =
  let slot = function None -> 0 | Some _ -> token_wire_size in
  base_wire_size + slot t.token + slot t.stamped + slot t.returned

let pp_action fmt = function
  | Incr -> Format.pp_print_string fmt "incr"
  | Decr -> Format.pp_print_string fmt "decr"

type flags = Syn | Syn_ack | Ack | Fin | Rst

type t = { conn : int; flags : flags; seq : int; ack : int; payload : int }

let header_size = 40

let wire_size t = header_size + t.payload

type t = int

let max_addr = 0xffffffff

let of_int i =
  if i < 0 || i > max_addr then invalid_arg "Addr.of_int: address out of 32-bit range";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t

let pp fmt t =
  Format.fprintf fmt "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let broadcast = max_addr

module Map = Map.Make (Int)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

type flavor = Exp | Dta

type t = { flavor : flavor; mutable markings : (int * int) list; mutable returned : (int * int) list option }

let exp_packet () = { flavor = Exp; markings = []; returned = None }
let dta ~markings = { flavor = Dta; markings; returned = None }

let copy t = { t with flavor = t.flavor }

(* The first entry for [router] in path order, compared as ints: the
   polymorphic compare of [List.assoc_opt] is a C call per entry.  A
   top-level function, so a lookup builds no closure. *)
let rec find_marking router = function
  | [] -> None
  | (r, bits) :: rest -> if Int.equal r router then Some bits else find_marking router rest

let marking_of t ~router = find_marking router t.markings

let add_marking t ~router ~bits = t.markings <- t.markings @ [ (router, bits) ]

let bits_per_router = 2

let wire_size _ = 4

type flavor = Exp | Dta

type t = { flavor : flavor; mutable markings : (int * int) list; mutable returned : (int * int) list option }

let exp_packet () = { flavor = Exp; markings = []; returned = None }
let dta ~markings = { flavor = Dta; markings; returned = None }

let copy t = { t with flavor = t.flavor }

(* The first entry for [router] in the list, compared as ints: the
   polymorphic compare of [List.assoc_opt] is a C call per entry.  A
   top-level function, so a lookup builds no closure. *)
let rec find_first router = function
  | [] -> None
  | (r, bits) :: rest -> if Int.equal r router then Some bits else find_first router rest

(* The last entry for [router]: the first in path order of an EXP
   packet's most-recent-first list. *)
let rec find_last router found = function
  | [] -> found
  | (r, bits) :: rest -> find_last router (if Int.equal r router then Some bits else found) rest

let marking_of t ~router =
  match t.flavor with
  | Dta -> find_first router t.markings
  | Exp -> find_last router None t.markings

let path_markings t = match t.flavor with Dta -> t.markings | Exp -> List.rev t.markings

(* One cons per router: appending copied the whole list at every hop. *)
let add_marking t ~router ~bits = t.markings <- (router, bits) :: t.markings

let bits_per_router = 2

let wire_size _ = 4

let size = 256

(* Fibonacci hashing: fold the fields with an odd multiplier and keep the
   top 8 of the 63 bits ([lsr] reads the product as unsigned). *)
let golden = 0x4F1BBCDCBFA53E1

let[@inline] slot a b c = (((((a * golden) + b) * golden) + c) * golden) lsr 55

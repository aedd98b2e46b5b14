(* Fixed-capacity packet-lifecycle trace ring.

   Struct-of-arrays: six parallel flat arrays (the float one unboxed), so a
   record is six unsafe stores and two counter bumps — no per-event
   allocation, ever.  The ring overwrites oldest-first once full; [seen]
   counts every offered record that passed the filter so sampling (keep
   1-in-[sample]) and loss accounting stay exact. *)

type t = {
  enabled : bool;
  mask : int; (* capacity - 1; capacity is a power of two *)
  times : float array;
  nodes : int array;
  events : int array; (* Event.to_int codes *)
  srcs : int array;
  dsts : int array;
  sizes : int array;
  sample : int; (* keep 1 record in [sample] filtered offers *)
  filter : bool array; (* indexed by Event.to_int *)
  mutable seen : int; (* offers that passed the filter *)
  mutable written : int; (* records stored (monotonic; ring holds the tail) *)
}

let nop =
  {
    enabled = false;
    mask = 0;
    times = [| 0. |];
    nodes = [| 0 |];
    events = [| 0 |];
    srcs = [| 0 |];
    dsts = [| 0 |];
    sizes = [| 0 |];
    sample = 1;
    filter = Array.make Event.count false;
    seen = 0;
    written = 0;
  }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ?(capacity = 65536) ?(sample = 1) ?filter () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if sample <= 0 then invalid_arg "Trace.create: sample must be positive";
  let cap = next_pow2 capacity 1 in
  let filter =
    match filter with
    | None -> Array.make Event.count true
    | Some f -> Array.of_list (List.map f Event.all)
  in
  {
    enabled = true;
    mask = cap - 1;
    times = Array.make cap 0.;
    nodes = Array.make cap 0;
    events = Array.make cap 0;
    srcs = Array.make cap 0;
    dsts = Array.make cap 0;
    sizes = Array.make cap 0;
    sample;
    filter;
    seen = 0;
    written = 0;
  }

let is_nop t = not t.enabled
let capacity t = t.mask + 1
let seen t = t.seen
let written t = t.written
let length t = min t.written (t.mask + 1)

let record t ~time ~node ~event ~src ~dst ~size =
  if t.enabled && Array.unsafe_get t.filter (Event.to_int event) then begin
    let n = t.seen in
    t.seen <- n + 1;
    if n mod t.sample = 0 then begin
      let i = t.written land t.mask in
      Array.unsafe_set t.times i time;
      Array.unsafe_set t.nodes i node;
      Array.unsafe_set t.events i (Event.to_int event);
      Array.unsafe_set t.srcs i src;
      Array.unsafe_set t.dsts i dst;
      Array.unsafe_set t.sizes i size;
      t.written <- t.written + 1
    end
  end

(* Oldest surviving record first. *)
let iter t f =
  let n = length t in
  let start = t.written - n in
  for k = 0 to n - 1 do
    let i = (start + k) land t.mask in
    f ~time:t.times.(i) ~node:t.nodes.(i) ~event:t.events.(i) ~src:t.srcs.(i) ~dst:t.dsts.(i)
      ~size:t.sizes.(i)
  done

let default_node_name id = string_of_int id

let to_jsonl ?(node_name = default_node_name) t buf =
  iter t (fun ~time ~node ~event ~src ~dst ~size ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"t\":%.9f,\"node\":\"%s\",\"event\":\"%s\",\"src\":%d,\"dst\":%d,\"size\":%d}\n" time
           (node_name node) (Event.name_of_int event) src dst size))

type entry = {
  e_src : Wire.Addr.t;
  e_dst : Wire.Addr.t;
  mutable nonce : int;
  mutable n_bytes : int;
  mutable t_sec : int;
  mutable cap_ts : int;
  mutable bytes_used : int;
  mutable slot : int;
}

(* Open addressing with linear probing instead of a Hashtbl keyed on a
   boxed (src, dst) tuple: a lookup touches one flat array and allocates
   nothing.  A slot holds a live record or one of two sentinel records,
   told apart by physical identity: [absent] (never used) and [tomb] (a
   deleted slot, so probe chains stay intact; tombs are recycled by
   [rehash]).  Holding records directly, not under a [Used] box, saves a
   dependent load per probe.  The invariant live + tombs <= length/2
   guarantees every probe terminates at an [absent] slot.  [insert]
   restores it by rehashing, and grows the table
   whenever live records would fill more than a quarter of it: a
   same-size rehash then always frees at least a quarter of the slots
   for tombs, so a full cache under eviction churn rehashes once per
   length/4 inserts, not on every one.

   The ttl lives outside the entry record, in an unboxed float array
   parallel to [slots] ([ttls.(e.slot)] is [e]'s expiry).  A [mutable
   float] field in a mixed record is a pointer to a boxed float, so every
   ttl update used to allocate 2 minor words — the last avoidable
   allocation on the cached-nonce path (ROADMAP item 2).  Storing it SoA
   makes the charge path allocation-free and keeps every entry record
   all-scalar. *)
type t = {
  mutable slots : entry array; (* length always a power of two *)
  mutable ttls : float array; (* unboxed; parallel to [slots] by index *)
  mutable live : int;
  mutable tombs : int;
  mutable cursor : int; (* incremental-sweep position, see [reclaim_one] *)
  max_entries : int;
  mutable evictions : int; (* records reclaimed (ttl/cap expiry), ever *)
  mutable hwm : int; (* live-records high-water mark *)
  obs : Obs.Counters.t;
}

let sentinel () =
  {
    e_src = Wire.Addr.of_int 0;
    e_dst = Wire.Addr.of_int 0;
    nonce = -1;
    n_bytes = 0;
    t_sec = 0;
    cap_ts = 0;
    bytes_used = 0;
    slot = -1;
  }

(* The two slot sentinels.  [absent] is also [find]'s miss result, so a
   lookup returns a bare record and allocates no [Some]. *)
let absent = sentinel ()
let tomb = sentinel ()
let[@inline] live e = e != absent && e != tomb

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ?(obs = Obs.Counters.nop) ~max_entries () =
  if max_entries <= 0 then invalid_arg "Flow_cache.create: capacity must be positive";
  let len = next_pow2 (min (2 * max_entries) 1024) 16 in
  {
    slots = Array.make len absent;
    ttls = Array.make len neg_infinity;
    live = 0;
    tombs = 0;
    cursor = 0;
    max_entries;
    evictions = 0;
    hwm = 0;
    obs;
  }

let size t = t.live
let capacity t = t.max_entries
let evictions t = t.evictions
let hwm t = t.hwm

(* Deterministic multiplicative mix of the two 32-bit addresses; OCaml int
   multiplication wraps, which is exactly what we want here. *)
let[@inline] slot_hash src dst =
  let h = (src * 0x9E3779B1) + dst in
  let h = h * 0x85EBCA6B in
  (h lxor (h lsr 29)) land max_int

let[@inline] home t ~src ~dst =
  slot_hash (Wire.Addr.to_int src) (Wire.Addr.to_int dst) land (Array.length t.slots - 1)

(* A top-level tail-recursive probe on purpose: the natural local [rec go]
   closes over [slots]/[mask]/[src]/[dst], and that closure is 7 minor
   words on every lookup.  With everything passed as arguments the tail
   call compiles to a jump and the probe itself allocates nothing. *)
let rec probe slots mask src dst i =
  let e = Array.unsafe_get slots i in
  if e == absent || (e != tomb && Wire.Addr.equal e.e_src src && Wire.Addr.equal e.e_dst dst)
  then e
  else probe slots mask src dst ((i + 1) land mask)

let[@inline] find t ~src ~dst = probe t.slots (Array.length t.slots - 1) src dst (home t ~src ~dst)

(* [absent] and [tomb] sit at slot -1.  Each operation on a record checks
   for them before it writes anything, so a missed [== absent] test in a
   caller fails loudly instead of scribbling on the shared sentinel. *)
let[@inline] check_record fn entry =
  if entry.slot < 0 then invalid_arg ("Flow_cache." ^ fn ^ ": absent record")

let ttl_remaining t entry ~now =
  check_record "ttl_remaining" entry;
  t.ttls.(entry.slot) -. now

(* The byte->time conversion at the heart of the bound: a packet of L bytes
   under a grant of N bytes / T seconds extends the ttl by L*T/N. *)
let[@inline] time_value ~bytes ~n_bytes ~t_sec =
  float_of_int bytes *. float_of_int t_sec /. float_of_int n_bytes

let[@inline] reclaimable_at t i entry ~now =
  t.ttls.(i) -. now <= 0.
  || Capability.expired ~now ~ts:entry.cap_ts ~t_sec:entry.t_sec

let[@inline] kill t i =
  t.slots.(i) <- tomb;
  t.live <- t.live - 1;
  t.tombs <- t.tombs + 1

(* A reclaim is an eviction for accounting purposes; explicit [remove] (a
   host tearing down its own flow) is not. *)
let[@inline] evict t i =
  kill t i;
  t.evictions <- t.evictions + 1;
  Obs.Counters.incr t.obs Obs.Event.Cache_evicted

let sweep t ~now =
  let slots = t.slots in
  let reclaimed = ref 0 in
  for i = 0 to Array.length slots - 1 do
    let e = slots.(i) in
    if live e && reclaimable_at t i e ~now then begin
      evict t i;
      incr reclaimed
    end
  done;
  !reclaimed

(* Amortized eviction: instead of folding over the whole table on every
   insert into a full cache, resume a scan from where the last one stopped
   and free the first reclaimable record found.  A full cycle without a
   find means the cache is genuinely full. *)
let reclaim_one t ~now =
  let slots = t.slots in
  let len = Array.length slots in
  let mask = len - 1 in
  let rec go remaining i =
    if remaining = 0 then false
    else
      let e = slots.(i) in
      if live e && reclaimable_at t i e ~now then begin
        evict t i;
        t.cursor <- (i + 1) land mask;
        true
      end
      else go (remaining - 1) ((i + 1) land mask)
  in
  go len (t.cursor land mask)

let rehash t new_len =
  let old = t.slots in
  let old_ttls = t.ttls in
  let slots = Array.make new_len absent in
  let ttls = Array.make new_len neg_infinity in
  let mask = new_len - 1 in
  t.slots <- slots;
  t.ttls <- ttls;
  t.tombs <- 0;
  t.cursor <- 0;
  Array.iter
    (fun e ->
      if live e then begin
        let ttl = old_ttls.(e.slot) in
        let rec place i =
          if slots.(i) == absent then begin
            slots.(i) <- e;
            ttls.(i) <- ttl;
            e.slot <- i
          end
          else place ((i + 1) land mask)
        in
        place (slot_hash (Wire.Addr.to_int e.e_src) (Wire.Addr.to_int e.e_dst) land mask)
      end)
    old

type insert_result = Inserted of entry | Cache_full | Over_limit

let insert t ~now ~src ~dst ~nonce ~n_kb ~t_sec ~cap_ts ~packet_bytes =
  let n_bytes = n_kb * 1024 in
  if packet_bytes > n_bytes then Over_limit
  else if t.live >= t.max_entries && not (reclaim_one t ~now) then Cache_full
  else begin
    let len = Array.length t.slots in
    if (t.live + t.tombs + 1) * 2 > len then
      rehash t (if (t.live + 1) * 4 > len then 2 * len else len);
    let ttl = now +. time_value ~bytes:packet_bytes ~n_bytes ~t_sec in
    let entry =
      {
        e_src = src;
        e_dst = dst;
        nonce;
        n_bytes;
        t_sec;
        cap_ts;
        bytes_used = packet_bytes;
        slot = -1;
      }
    in
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    (* Replace an existing record for the flow if there is one; otherwise
       reuse the first tombstone on the chain or claim the empty slot. *)
    let rec place i first_tomb =
      let e = slots.(i) in
      if e == absent then begin
        let dest = if first_tomb >= 0 then first_tomb else i in
        if first_tomb >= 0 then t.tombs <- t.tombs - 1;
        slots.(dest) <- entry;
        entry.slot <- dest;
        t.ttls.(dest) <- ttl;
        t.live <- t.live + 1;
        if t.live > t.hwm then t.hwm <- t.live
      end
      else if e == tomb then place ((i + 1) land mask) (if first_tomb >= 0 then first_tomb else i)
      else if Wire.Addr.equal e.e_src src && Wire.Addr.equal e.e_dst dst then begin
        slots.(i) <- entry;
        entry.slot <- i;
        t.ttls.(i) <- ttl
      end
      else place ((i + 1) land mask) first_tomb
    in
    place (home t ~src ~dst) (-1);
    Inserted entry
  end

type charge_result = Charged | Byte_limit

let[@inline] charge t entry ~now:_ ~bytes =
  check_record "charge" entry;
  if entry.bytes_used + bytes > entry.n_bytes then Byte_limit
  else begin
    entry.bytes_used <- entry.bytes_used + bytes;
    (* ttl grows by the packet's time value; deliberately no clamping to
       [now] — the 2N bound's proof needs total ttl = bytes * T/N. *)
    t.ttls.(entry.slot) <-
      t.ttls.(entry.slot) +. time_value ~bytes ~n_bytes:entry.n_bytes ~t_sec:entry.t_sec;
    Charged
  end

let[@inline] renew t entry ~now ~nonce ~n_kb ~t_sec ~cap_ts ~packet_bytes =
  check_record "renew" entry;
  let n_bytes = n_kb * 1024 in
  if packet_bytes > n_bytes then Byte_limit
  else begin
    entry.nonce <- nonce;
    entry.n_bytes <- n_bytes;
    entry.t_sec <- t_sec;
    entry.cap_ts <- cap_ts;
    entry.bytes_used <- packet_bytes;
    (* A fresh capability's clock starts now; stale credit from the old
       grant must not carry over.  (A plain comparison, not [Float.max]:
       neither side is NaN or -0., and [Float.max]'s sign checks are C
       calls.) *)
    let ttl = t.ttls.(entry.slot) in
    t.ttls.(entry.slot) <-
      (if now > ttl then now else ttl) +. time_value ~bytes:packet_bytes ~n_bytes ~t_sec;
    Charged
  end

let remove t entry =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec go i =
    let e = slots.(i) in
    if e == entry then kill t i else if e != absent then go ((i + 1) land mask)
  in
  go (home t ~src:entry.e_src ~dst:entry.e_dst)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) absent;
  t.live <- 0;
  t.tombs <- 0;
  t.cursor <- 0

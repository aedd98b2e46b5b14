(* An aggregate flooder: one object stands in for [n] identical CBR
   zombies.  Each member owns a private RNG lane ([Rng.Bank], bit-identical
   to [Rng.lane ~seed i]) and draws exactly what a real [Agents.Flooder]
   with that lane would draw — one phase at creation, one jitter per packet
   — so the emitted (time, member) stream equals [n] real flooders
   regardless of how the members are multiplexed onto the simulator.

   Two multiplexings:

   - [Coalesced]: member deadlines live in an unboxed float array with a
     binary member-index heap over it (ties break toward the lower member
     id, matching the creation-order seq tie-break [n] real flooders would
     get).  Exactly ONE simulator event is pending per swarm, so scheduler
     load is independent of [n]; per-member state is three words.
   - [Independent]: one simulator timer per member.  Functionally identical
     stream; exists to put a million real timers in the pending queue —
     the scheduler-stress leg of the scale benchmark.

   [batch_window] (Coalesced only) drains every member due within [w]
   seconds of the fired deadline in one event, trading event count for
   admission jitter.  Deadlines and RNG draws still use each member's
   nominal due time, so the per-member stream stays exact; only the
   injection instant coarsens. *)

type mode = Coalesced | Independent

let mode_of_string = function
  | "coalesced" -> Ok Coalesced
  | "independent" -> Ok Independent
  | s -> Error (Printf.sprintf "unknown swarm mode %S (want coalesced|independent)" s)

let mode_to_string = function Coalesced -> "coalesced" | Independent -> "independent"

type t = {
  sim : Sim.t;
  bank : Rng.Bank.t;
  n : int;
  interval : float;
  stop_at : float;
  batch_window : float;
  emit : member:int -> due:float -> unit;
  (* Coalesced state; unused ([||]) in Independent mode. *)
  next : float array; (* member -> nominal next fire time *)
  heap : int array; (* member-index heap keyed by (next.(i), i) *)
  mutable hsize : int;
  mutable sent : int;
}

let members t = t.n
let packets_sent t = t.sent
let live_members t = if Array.length t.heap = 0 then t.n else t.hsize

(* --- member heap (Coalesced) ------------------------------------------- *)

let earlier t a b =
  let ta = t.next.(a) and tb = t.next.(b) in
  ta < tb || (ta = tb && a < b)

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.hsize then begin
    let r = l + 1 in
    let c = if r < t.hsize && earlier t t.heap.(r) t.heap.(l) then r else l in
    if earlier t t.heap.(c) t.heap.(i) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(c);
      t.heap.(c) <- tmp;
      sift_down t c
    end
  end

let heapify t =
  for i = (t.hsize / 2) - 1 downto 0 do
    sift_down t i
  done

(* --- firing ------------------------------------------------------------- *)

let rec coalesced_fire t () =
  let horizon = Sim.now t.sim +. t.batch_window in
  let continue = ref true in
  while t.hsize > 0 && !continue do
    let m = t.heap.(0) in
    let due = t.next.(m) in
    if due > horizon then continue := false
    else if due >= t.stop_at then begin
      (* Same check a real flooder makes at its fire time: past [stop_at]
         it neither sends nor draws, so the member retires. *)
      t.hsize <- t.hsize - 1;
      t.heap.(0) <- t.heap.(t.hsize);
      sift_down t 0
    end
    else begin
      t.emit ~member:m ~due;
      t.sent <- t.sent + 1;
      let jitter = 0.95 +. Rng.Bank.float t.bank m 0.1 in
      t.next.(m) <- due +. (t.interval *. jitter);
      sift_down t 0
    end
  done;
  if t.hsize > 0 then
    Sim.schedule_at ~kind:Sim.Kind.agent t.sim ~time:t.next.(t.heap.(0)) (coalesced_fire t)

let independent_start t ~start_at =
  for i = 0 to t.n - 1 do
    let phase = Rng.Bank.float t.bank i t.interval in
    let rec tick () =
      let now = Sim.now t.sim in
      if now < t.stop_at then begin
        t.emit ~member:i ~due:now;
        t.sent <- t.sent + 1;
        let jitter = 0.95 +. Rng.Bank.float t.bank i 0.1 in
        Sim.schedule ~kind:Sim.Kind.agent t.sim ~delay:(t.interval *. jitter) tick
      end
    in
    Sim.schedule_at ~kind:Sim.Kind.agent t.sim ~time:(start_at +. phase) tick
  done

let start ~sim ~n ~seed ~rate_bps ?(pkt_bytes = 1000) ?(start_at = 0.) ?stop_at
    ?(batch_window = 0.) ?(mode = Coalesced) ~emit () =
  if n <= 0 then invalid_arg "Swarm.start: n must be positive";
  if rate_bps <= 0. then invalid_arg "Swarm.start: rate must be positive";
  if batch_window < 0. then invalid_arg "Swarm.start: negative batch window";
  let interval = float_of_int pkt_bytes *. 8. /. rate_bps in
  let stop_at = match stop_at with Some s -> s | None -> infinity in
  let bank = Rng.Bank.create ~seed ~n in
  match mode with
  | Independent ->
      let t =
        {
          sim;
          bank;
          n;
          interval;
          stop_at;
          batch_window = 0.;
          emit;
          next = [||];
          heap = [||];
          hsize = 0;
          sent = 0;
        }
      in
      independent_start t ~start_at;
      t
  | Coalesced ->
      (* Phases draw in ascending member order — the same order [n] real
         flooders constructed in a loop would draw theirs. *)
      let next = Array.init n (fun i -> start_at +. Rng.Bank.float bank i interval) in
      let t =
        {
          sim;
          bank;
          n;
          interval;
          stop_at;
          batch_window;
          emit;
          next;
          heap = Array.init n (fun i -> i);
          hsize = n;
          sent = 0;
        }
      in
      heapify t;
      Sim.schedule_at ~kind:Sim.Kind.agent sim ~time:t.next.(t.heap.(0)) (coalesced_fire t);
      t

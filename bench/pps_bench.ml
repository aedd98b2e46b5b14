(* Packets/sec through the router's per-packet paths (paper Sec. 6.1).

   Drives N synthetic flows through a single [Router.process] loop and
   reports, for each of the four paths a packet can take —

     cached-nonce  flow-cache hit on the 48-bit nonce (paper: ~33 ns)
     validate      capability listed in the packet, two hash checks
                   (paper: ~460 ns)
     request       pre-capability minted and appended
     legacy        no shim, counted straight through

   — the throughput and the minor-heap words allocated per packet.  The
   cached-nonce path is the line-rate path, so the benchmark FAILS (exit 1)
   if it allocates more than [budget] minor words per packet; the same
   budget is pinned by a regression test in the test suite.

   The cached-nonce path is then re-measured on a second router with the
   observability counter registry attached (tracing stays off).  The
   zero-overhead contract gates here too: counters may cost at most
   [--obs-overhead-pct] percent of cached-nonce pps (default 5%) and must
   allocate no extra minor words per packet.

   Run with:            dune exec bench/pps_bench.exe
   Smoke mode (CI):     dune exec bench/pps_bench.exe -- --flows 64 --passes 50 *)

let flows = ref 1024
let passes = ref 512
let budget = ref 12.
let validate_budget = ref 42.
let request_budget = ref 24.
let obs_overhead_pct = ref 5.
let out_path = ref "BENCH_pps.json"
let profile_out = ref ""

let spec =
  [
    ("--flows", Arg.Set_int flows, "N  distinct (src,dst) flows (default 1024)");
    ("--passes", Arg.Set_int passes, "K  timed passes over all flows per path (default 512)");
    ( "--budget",
      Arg.Set_float budget,
      "W  max minor words/packet on the cached-nonce path (default 12)" );
    ( "--validate-budget",
      Arg.Set_float validate_budget,
      "W  max minor words/packet on the validate path (default 42)" );
    ( "--request-budget",
      Arg.Set_float request_budget,
      "W  max minor words/packet on the request path (default 24)" );
    ( "--obs-overhead-pct",
      Arg.Set_float obs_overhead_pct,
      "P  max cached-nonce pps loss with obs counters attached (default 5)" );
    ("--out", Arg.Set_string out_path, "PATH  where to write the JSON report");
    ( "--profile-out",
      Arg.Set_string profile_out,
      "PATH  also write the per-stage ns budget report" );
  ]

let usage =
  "pps_bench [--flows N] [--passes K] [--budget W] [--validate-budget W] [--request-budget W] \
   [--obs-overhead-pct P] [--out PATH] [--profile-out PATH]"

let n_kb = 1023
let t_sec = 32

type measurement = { pps : float; ns_per_packet : float; minor_words_per_packet : float }

(* Time [passes] repetitions of [per_pass] (each processing [flows]
   packets) and read the Gc's minor-words counter across the same loop so
   timing and allocation come from one pass. *)
let measure ~flows ~passes per_pass =
  let packets = flows * passes in
  Gc.full_major ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for pass = 0 to passes - 1 do
    per_pass pass
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  {
    pps = float_of_int packets /. wall;
    ns_per_packet = wall *. 1e9 /. float_of_int packets;
    minor_words_per_packet = words /. float_of_int packets;
  }

(* Compare two variants of the same path fairly on a noisy machine:
   alternate [reps] chunks of each and keep each side's best (max-pps)
   chunk.  Adjacent chunks share the noise environment, and scheduler
   stalls only ever slow a chunk down, so the best chunk is the cleanest
   estimate of each side's true rate.  Minor words are averaged over every
   chunk — allocation does not depend on timing noise. *)
let measure_duel ?(reps = 8) ~flows ~passes pass_a pass_b =
  let chunk = max 1 (passes / reps) in
  let reps = passes / chunk in
  let best_a = ref None and best_b = ref None in
  let words_a = ref 0. and words_b = ref 0. in
  let packets = ref 0 in
  for r = 0 to reps - 1 do
    (* Fold the division remainder into the last chunk so each side times
       exactly [passes] passes in total. *)
    let p = chunk + if r = reps - 1 then passes - (chunk * reps) else 0 in
    (* Swap which side goes first each round: cache- and frequency-state
       left behind by one measurement must not systematically favor the
       other. *)
    let ma, mb =
      if r land 1 = 0 then
        let ma = measure ~flows ~passes:p pass_a in
        (ma, measure ~flows ~passes:p pass_b)
      else
        let mb = measure ~flows ~passes:p pass_b in
        (measure ~flows ~passes:p pass_a, mb)
    in
    let n = float_of_int (flows * p) in
    words_a := !words_a +. (ma.minor_words_per_packet *. n);
    words_b := !words_b +. (mb.minor_words_per_packet *. n);
    packets := !packets + (flows * p);
    (match !best_a with Some m when m.pps >= ma.pps -> () | _ -> best_a := Some ma);
    match !best_b with Some m when m.pps >= mb.pps -> () | _ -> best_b := Some mb
  done;
  let finish best words =
    let m = Option.get best in
    { m with minor_words_per_packet = words /. float_of_int !packets }
  in
  (finish !best_a !words_a, finish !best_b !words_b)

let check_counters ~label ~(before : Tva.Router.counters) ~(after : Tva.Router.counters)
    ~expect_field ~expected =
  let got = expect_field after - expect_field before in
  if got <> expected then begin
    Printf.eprintf "FATAL: %s path processed %d packets on the expected branch, wanted %d\n" label
      got expected;
    exit 1
  end;
  if after.Tva.Router.demotions <> before.Tva.Router.demotions then begin
    Printf.eprintf "FATAL: %s path demoted %d packets\n" label
      (after.Tva.Router.demotions - before.Tva.Router.demotions);
    exit 1
  end

let snapshot (c : Tva.Router.counters) = { c with Tva.Router.requests = c.Tva.Router.requests }

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let flows = max 1 !flows and passes = max 1 !passes in
  let sim = Sim.create () in
  (* 1 Gbps provisions a flow cache far larger than [flows], so the cached
     path is measured without evictions. *)
  let router =
    Tva.Router.create ~secret_master:"pps-bench" ~router_id:1 ~sim ~link_bps:1e9 ()
  in
  let src f = Wire.Addr.of_int (0x0A000000 + f) in
  let dst = Wire.Addr.of_int 0x0B000001 in
  Printf.printf "pps_bench: %d flows x %d passes per path\n%!" flows passes;

  (* --- request path ---------------------------------------------------- *)
  (* One reusable request packet per flow; the shim's hop-by-hop lists are
     reset in place each pass so the loop allocates only what the router
     path itself allocates. *)
  let req_packets =
    Array.init flows (fun f ->
        Wire.Packet.make ~shim:(Wire.Cap_shim.request ()) ~src:(src f) ~dst ~created:0.
          (Wire.Packet.Raw 64))
  in
  let reset_request (p : Wire.Packet.t) =
    match p.Wire.Packet.shim with
    | Some ({ Wire.Cap_shim.kind = Wire.Cap_shim.Request req; _ } as shim) ->
        req.Wire.Cap_shim.rev_path_ids <- [];
        req.Wire.Cap_shim.rev_precaps <- [];
        shim.Wire.Cap_shim.demoted <- false
    | _ -> assert false
  in
  let request_pass _pass =
    for f = 0 to flows - 1 do
      let p = req_packets.(f) in
      reset_request p;
      Tva.Router.process router ~in_interface:0 p
    done
  in
  request_pass 0 (* warmup *);
  let before = snapshot (Tva.Router.counters router) in
  let request_m = measure ~flows ~passes request_pass in
  check_counters ~label:"request" ~before ~after:(Tva.Router.counters router)
    ~expect_field:(fun c -> c.Tva.Router.requests)
    ~expected:(flows * passes);

  (* Convert each flow's pre-capability into a capability, destination-side,
     for the regular-packet paths. *)
  let caps =
    Array.init flows (fun f ->
        let p = req_packets.(f) in
        reset_request p;
        Tva.Router.process router ~in_interface:0 p;
        match p.Wire.Packet.shim with
        | Some { Wire.Cap_shim.kind = Wire.Cap_shim.Request { rev_precaps = [ pc ]; _ }; _ } ->
            Tva.Capability.cap_of_precap
              ~hash:(module Crypto.Keyed_hash.Fast : Crypto.Keyed_hash.S)
              ~precap:pc ~n_kb ~t_sec
        | _ -> failwith "request packet did not gain a pre-capability")
  in

  (* --- validate path --------------------------------------------------- *)
  (* Two packet sets per flow with different nonces: every process sees a
     nonce mismatch against the cache entry and must re-validate the listed
     capability (two hashes) and renew the entry — the paper's "validate a
     listed capability" cost.  The capability ptr is rewound after each
     packet so the same shim revalidates forever. *)
  let regular_packets ~nonce =
    Array.init flows (fun f ->
        let shim =
          Wire.Cap_shim.regular ~nonce ~caps:[ caps.(f) ] ~n_kb ~t_sec ~renewal:false ()
        in
        Wire.Packet.make ~shim ~src:(src f) ~dst ~created:0. (Wire.Packet.Raw 64))
  in
  let val_a = regular_packets ~nonce:1L and val_b = regular_packets ~nonce:2L in
  let validate_pass pass =
    let arr = if pass land 1 = 0 then val_a else val_b in
    for f = 0 to flows - 1 do
      let p = arr.(f) in
      Tva.Router.process router ~in_interface:0 p;
      (match p.Wire.Packet.shim with Some s -> s.Wire.Cap_shim.ptr <- 0 | None -> ())
    done
  in
  validate_pass 1 (* warmup with the B nonces: pass 0's A nonces all mismatch *);
  let before = snapshot (Tva.Router.counters router) in
  let validate_m = measure ~flows ~passes validate_pass in
  check_counters ~label:"validate" ~before ~after:(Tva.Router.counters router)
    ~expect_field:(fun c -> c.Tva.Router.regular_validated)
    ~expected:(flows * passes);

  (* --- cached-nonce path ----------------------------------------------- *)
  (* Leave every cache entry holding nonce A, then time nonce-only packets
     carrying A: pure lookup + charge. *)
  validate_pass (if passes land 1 = 0 then 0 else 1);
  let cached_packets =
    Array.init flows (fun f ->
        let shim =
          Wire.Cap_shim.regular
            ~nonce:(if passes land 1 = 0 then 1L else 2L)
            ~caps:[] ~n_kb ~t_sec ~renewal:false ()
        in
        Wire.Packet.make ~shim ~src:(src f) ~dst ~created:0. (Wire.Packet.Raw 64))
  in
  let cached_pass _pass =
    for f = 0 to flows - 1 do
      Tva.Router.process router ~in_interface:0 cached_packets.(f)
    done
  in
  cached_pass 0 (* warmup *);
  let before = snapshot (Tva.Router.counters router) in
  let cached_m = measure ~flows ~passes cached_pass in
  check_counters ~label:"cached-nonce" ~before ~after:(Tva.Router.counters router)
    ~expect_field:(fun c -> c.Tva.Router.regular_cached)
    ~expected:(flows * passes);

  (* --- legacy path ----------------------------------------------------- *)
  let legacy_packets =
    Array.init flows (fun f -> Wire.Packet.make ~src:(src f) ~dst ~created:0. (Wire.Packet.Raw 64))
  in
  let legacy_pass _pass =
    for f = 0 to flows - 1 do
      Tva.Router.process router ~in_interface:0 legacy_packets.(f)
    done
  in
  legacy_pass 0 (* warmup *);
  let before = snapshot (Tva.Router.counters router) in
  let legacy_m = measure ~flows ~passes legacy_pass in
  check_counters ~label:"legacy" ~before ~after:(Tva.Router.counters router)
    ~expect_field:(fun c -> c.Tva.Router.legacy)
    ~expected:(flows * passes);

  (* --- cached-nonce path, observability counters attached --------------- *)
  (* A second router with the same secret master and id (so the caps minted
     above validate on it) but a live counter registry.  The counters are
     unconditional int-array stores, so both gates below should be slack:
     pps within [--obs-overhead-pct] of the bare cached path, and not one
     extra minor word per packet. *)
  let obs_counters = Obs.Counters.create ~name:"pps-bench-router" () in
  let router_obs =
    Tva.Router.create ~obs:obs_counters ~secret_master:"pps-bench" ~router_id:1 ~sim
      ~link_bps:1e9 ()
  in
  let obs_nonce = 3L in
  let obs_prime =
    Array.init flows (fun f ->
        let shim =
          Wire.Cap_shim.regular ~nonce:obs_nonce ~caps:[ caps.(f) ] ~n_kb ~t_sec ~renewal:false ()
        in
        Wire.Packet.make ~shim ~src:(src f) ~dst ~created:0. (Wire.Packet.Raw 64))
  in
  Array.iter (fun p -> Tva.Router.process router_obs ~in_interface:0 p) obs_prime;
  let obs_cached_packets =
    Array.init flows (fun f ->
        let shim =
          Wire.Cap_shim.regular ~nonce:obs_nonce ~caps:[] ~n_kb ~t_sec ~renewal:false ()
        in
        Wire.Packet.make ~shim ~src:(src f) ~dst ~created:0. (Wire.Packet.Raw 64))
  in
  let obs_cached_pass _pass =
    for f = 0 to flows - 1 do
      Tva.Router.process router_obs ~in_interface:0 obs_cached_packets.(f)
    done
  in
  obs_cached_pass 0 (* warmup *);
  let before_bare = snapshot (Tva.Router.counters router) in
  let before_obs = snapshot (Tva.Router.counters router_obs) in
  let obs_events_before = Obs.Counters.get obs_counters Obs.Event.Nonce_hit in
  (* The overhead comparison re-times the bare cached path head-to-head
     against the obs one rather than reusing [cached_m]: back-to-back
     alternating chunks are the only fair comparison on a machine with
     minutes-scale speed drift. *)
  let bare_duel_m, obs_cached_m = measure_duel ~flows ~passes cached_pass obs_cached_pass in
  check_counters ~label:"cached-nonce (duel)" ~before:before_bare
    ~after:(Tva.Router.counters router)
    ~expect_field:(fun c -> c.Tva.Router.regular_cached)
    ~expected:(flows * passes);
  check_counters ~label:"cached-nonce+obs" ~before:before_obs
    ~after:(Tva.Router.counters router_obs)
    ~expect_field:(fun c -> c.Tva.Router.regular_cached)
    ~expected:(flows * passes);
  (* The registry really was on the path: every timed packet hit the nonce
     counter. *)
  if Obs.Counters.get obs_counters Obs.Event.Nonce_hit - obs_events_before <> flows * passes
  then begin
    Printf.eprintf "FATAL: obs cached-nonce path did not tick the nonce_hit counter\n";
    exit 1
  end;
  let obs_overhead = 100. *. (bare_duel_m.pps -. obs_cached_m.pps) /. bare_duel_m.pps in
  let obs_extra_words =
    obs_cached_m.minor_words_per_packet -. bare_duel_m.minor_words_per_packet
  in

  (* --- cached-nonce path, obs + telemetry tick --------------------------- *)
  (* The obs router again, now with a telemetry ring snapshotting its
     counters once per pass — one tick per [flows] packets, the cadence a
     100 ms interval has at line rate.  Head-to-head against the plain obs
     pass: the tick must cost under [--obs-overhead-pct] percent of
     cached-nonce pps and allocate nothing (the tick path is unsafe float
     stores into preallocated rings). *)
  let ts = Obs.Timeseries.create ~interval:1.0 () in
  Obs.Timeseries.add ts ~name:"nonce_hits" ~mode:Obs.Timeseries.Cumulative
    (Obs.Timeseries.Cell (obs_counters, Obs.Event.to_int Obs.Event.Nonce_hit));
  Obs.Timeseries.add ts ~name:"demoted" ~mode:Obs.Timeseries.Cumulative
    (Obs.Timeseries.Cell (obs_counters, Obs.Event.to_int Obs.Event.Demoted));
  Obs.Timeseries.add ts ~name:"packets" ~mode:Obs.Timeseries.Cumulative
    (Obs.Timeseries.Cell (obs_counters, Obs.Event.to_int Obs.Event.Packets_in));
  let tick_no = ref 0 in
  let telemetry_pass pass =
    obs_cached_pass pass;
    incr tick_no;
    Obs.Timeseries.tick ts ~time:(float_of_int !tick_no)
  in
  telemetry_pass 0 (* warmup; also freezes the channel set *);
  let before_obs = snapshot (Tva.Router.counters router_obs) in
  let obs_ref_m, telemetry_m = measure_duel ~flows ~passes obs_cached_pass telemetry_pass in
  check_counters ~label:"cached-nonce (telemetry duel)" ~before:before_obs
    ~after:(Tva.Router.counters router_obs)
    ~expect_field:(fun c -> c.Tva.Router.regular_cached)
    ~expected:(2 * flows * passes);
  (* The ring really recorded: every timed telemetry pass stored one
     window, and the nonce-hit deltas over those windows sum to the side's
     packet count. *)
  if Obs.Timeseries.written ts < passes then begin
    Printf.eprintf "FATAL: telemetry ring recorded %d windows, wanted >= %d\n"
      (Obs.Timeseries.written ts) passes;
    exit 1
  end;
  let telemetry_overhead = 100. *. (obs_ref_m.pps -. telemetry_m.pps) /. obs_ref_m.pps in
  let telemetry_extra_words =
    telemetry_m.minor_words_per_packet -. obs_ref_m.minor_words_per_packet
  in

  (* --- report ---------------------------------------------------------- *)
  let pp_path name m =
    Printf.printf "  %-13s %10.0f pps  %8.1f ns/pkt  %6.2f minor words/pkt\n%!" name m.pps
      m.ns_per_packet m.minor_words_per_packet
  in
  pp_path "cached-nonce" cached_m;
  pp_path "validate" validate_m;
  pp_path "request" request_m;
  pp_path "legacy" legacy_m;
  pp_path "cached+obs" obs_cached_m;
  Printf.printf "  obs counters: %+.2f%% pps, %+.3f minor words/pkt vs bare cached-nonce\n%!"
    obs_overhead obs_extra_words;
  pp_path "cached+telem" telemetry_m;
  Printf.printf "  telemetry tick: %+.2f%% pps, %+.3f minor words/pkt vs obs cached-nonce\n%!"
    telemetry_overhead telemetry_extra_words;
  let budget_ok = cached_m.minor_words_per_packet <= !budget in
  let validate_ok = validate_m.minor_words_per_packet <= !validate_budget in
  let request_ok = request_m.minor_words_per_packet <= !request_budget in
  let json_path name m =
    String.concat "\n"
      [
        Printf.sprintf "  \"%s\": {" name;
        Printf.sprintf "    \"pps\": %.0f," m.pps;
        Printf.sprintf "    \"ns_per_packet\": %.2f," m.ns_per_packet;
        Printf.sprintf "    \"minor_words_per_packet\": %.3f" m.minor_words_per_packet;
        "  }";
      ]
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"router per-packet paths\",";
        Printf.sprintf "  \"flows\": %d," flows;
        Printf.sprintf "  \"passes\": %d," passes;
        Printf.sprintf "  \"packets_per_path\": %d," (flows * passes);
        json_path "cached_nonce" cached_m ^ ",";
        json_path "validate" validate_m ^ ",";
        json_path "request" request_m ^ ",";
        json_path "legacy" legacy_m ^ ",";
        json_path "cached_nonce_obs" obs_cached_m ^ ",";
        json_path "cached_nonce_telemetry" telemetry_m ^ ",";
        Printf.sprintf "  \"obs_overhead_pct\": %.2f," obs_overhead;
        Printf.sprintf "  \"obs_overhead_budget_pct\": %g," !obs_overhead_pct;
        Printf.sprintf "  \"obs_extra_minor_words\": %.3f," obs_extra_words;
        Printf.sprintf "  \"telemetry_overhead_pct\": %.2f," telemetry_overhead;
        Printf.sprintf "  \"telemetry_overhead_budget_pct\": %g," !obs_overhead_pct;
        Printf.sprintf "  \"telemetry_extra_minor_words\": %.3f," telemetry_extra_words;
        Printf.sprintf "  \"cached_nonce_budget_words\": %g," !budget;
        Printf.sprintf "  \"cached_nonce_budget_ok\": %b," budget_ok;
        Printf.sprintf "  \"validate_budget_words\": %g," !validate_budget;
        Printf.sprintf "  \"validate_budget_ok\": %b," validate_ok;
        Printf.sprintf "  \"request_budget_words\": %g," !request_budget;
        Printf.sprintf "  \"request_budget_ok\": %b" request_ok;
        "}";
      ]
  in
  let oc = open_out !out_path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  -> %s\n%!" !out_path;
  let failed = ref false in
  let check_budget name actual limit =
    if actual > limit then begin
      Printf.eprintf "FATAL: %s path allocates %.2f minor words/packet (budget %g)\n" name actual
        limit;
      failed := true
    end
  in
  check_budget "cached-nonce" cached_m.minor_words_per_packet !budget;
  check_budget "validate" validate_m.minor_words_per_packet !validate_budget;
  check_budget "request" request_m.minor_words_per_packet !request_budget;
  (* --- per-stage ns budgets ---------------------------------------------- *)
  (* Each stage's ns/packet is accumulated in a [Stats.Summary] and gated
     as a multiple of the same report's legacy ns — the legacy path does
     no TVA work, so the ratio cancels machine speed and the budgets hold
     on slow CI runners.  Multipliers leave about 2x headroom over the
     committed ratios. *)
  let stages =
    [
      ("cached_nonce", cached_m.ns_per_packet, 10.);
      ("validate", validate_m.ns_per_packet, 25.);
      ("request", request_m.ns_per_packet, 20.);
    ]
  in
  let stage_rows =
    List.map
      (fun (name, ns, mult) ->
        let summary = Stats.Summary.create () in
        Stats.Summary.add summary ns;
        let ratio = ns /. legacy_m.ns_per_packet in
        let ok = ratio <= mult in
        if not ok then begin
          Printf.eprintf "FATAL: %s stage costs %.1fx legacy ns (budget %gx)\n" name ratio mult;
          failed := true
        end;
        (name, summary, ratio, mult, ok))
      stages
  in
  if !profile_out <> "" then begin
    let stage_json (name, summary, ratio, mult, ok) =
      let ns = Stats.Summary.mean summary in
      String.concat "\n"
        [
          Printf.sprintf "  \"%s\": {" name;
          Printf.sprintf "    \"ns_per_packet\": %.2f," ns;
          Printf.sprintf "    \"x_legacy\": %.2f," ratio;
          Printf.sprintf "    \"budget_x_legacy\": %g," mult;
          Printf.sprintf "    \"ok\": %b" ok;
          "  },";
        ]
    in
    let pj =
      String.concat "\n"
        ([
           "{";
           "  \"benchmark\": \"router per-stage ns budgets\",";
           Printf.sprintf "  \"legacy_ns_per_packet\": %.2f," legacy_m.ns_per_packet;
         ]
        @ List.map stage_json stage_rows
        @ [ Printf.sprintf "  \"all_ok\": %b" (List.for_all (fun (_, _, _, _, ok) -> ok) stage_rows); "}" ])
    in
    let oc = open_out !profile_out in
    output_string oc pj;
    output_char oc '\n';
    close_out oc;
    Printf.printf "  -> %s\n%!" !profile_out
  end;
  if obs_overhead > !obs_overhead_pct then begin
    Printf.eprintf "FATAL: obs counters cost %.2f%% cached-nonce pps (budget %g%%)\n" obs_overhead
      !obs_overhead_pct;
    failed := true
  end;
  (* Counters are unconditional stores into a preallocated array: the obs
     run must not allocate a single extra minor word per packet.  The
     epsilon only absorbs the per-measurement fixed costs amortized over
     flows*passes packets. *)
  if obs_extra_words > 0.01 then begin
    Printf.eprintf "FATAL: obs counters allocate %.3f extra minor words/packet\n" obs_extra_words;
    failed := true
  end;
  (* The telemetry tick is one float store per channel into a preallocated
     ring, amortized over [flows] packets — same budget as the counters:
     within [obs_overhead_pct] of the obs-only pps and no allocation. *)
  if telemetry_overhead > !obs_overhead_pct then begin
    Printf.eprintf "FATAL: telemetry tick costs %.2f%% cached-nonce pps (budget %g%%)\n"
      telemetry_overhead !obs_overhead_pct;
    failed := true
  end;
  if telemetry_extra_words > 0.01 then begin
    Printf.eprintf "FATAL: telemetry tick allocates %.3f extra minor words/packet\n"
      telemetry_extra_words;
    failed := true
  end;
  if !failed then exit 1

(* Table 1's driver over the real router and the forwarding-rate model
   behind Fig. 12. *)

let all_ops_run () =
  let fp = Forwarder.Fastpath.create () in
  List.iter
    (fun op ->
      (* Each op must stay on its branch across passes over its flows;
         three make a smoke check. *)
      Forwarder.Fastpath.on_branch fp op ~packets:(3 * Forwarder.Fastpath.flows) (fun () ->
          for _ = 1 to 3 do
            Forwarder.Fastpath.pass fp op
          done))
    Forwarder.Fastpath.all_ops

let branch_check_catches_demotion () =
  (* A lost flow cache demotes the nonce-only packets: measure must
     refuse to report a cost for a branch its packets did not take. *)
  let fp = Forwarder.Fastpath.create () in
  Tva.Router.flush_cache (Forwarder.Fastpath.router fp);
  match Forwarder.Fastpath.measure fp ~passes:1 [ Forwarder.Fastpath.Regular_cached ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "reported a cost for demoted packets"

(* The SipHash stage budgets are legacy multiples: a validate op at 26x
   legacy is over its 25x, one at 21x is not. *)
let stage_check () =
  let timed ns = { Forwarder.Fastpath.ns_per_packet = ns; slice_ns = [| ns |]; minor_words_per_packet = 0. } in
  let over validate =
    Forwarder.Fastpath.(
      stage_ratios
        [
          (Legacy_forward, timed 10.);
          (Request, timed 160.);
          (Regular_cached, timed 60.);
          (Regular_uncached, timed validate);
        ])
    |> List.filter (fun (_, ratio, budget) -> ratio > budget)
  in
  (match over 260. with
  | [ (Forwarder.Fastpath.Regular_uncached, ratio, budget) ] ->
      Alcotest.(check (float 1e-9)) "validate ratio" 26. ratio;
      Alcotest.(check (float 0.)) "validate budget" 25. budget
  | l -> Alcotest.failf "26x validate: %d stages over budget, expected validate alone" (List.length l));
  Alcotest.(check int) "21x validate passes" 0 (List.length (over 210.))

(* ns/packet of each of [ops], measured together. *)
let ns fp ~passes ops =
  let results = Forwarder.Fastpath.measure fp ~passes ops in
  fun op -> (List.assoc op results).Forwarder.Fastpath.ns_per_packet

(* The prototype's crypto, counting its calls. *)
module Counting_hash = struct
  module P = Crypto.Keyed_hash.Prototype
  include P

  let precaps = ref 0
  let caps = ref 0

  let mac56_precap_p ~prep ~src ~dst ~ts =
    incr precaps;
    P.mac56_precap_p ~prep ~src ~dst ~ts

  let mac56_cap_p ~prep ~precap_ts ~precap_hash ~n_kb ~t_sec =
    incr caps;
    P.mac56_cap_p ~prep ~precap_ts ~precap_hash ~n_kb ~t_sec
end

let cost_ordering_matches_table1 () =
  (* The paper's Table 1 ordering: cached << request ≈ renewal-hit <
     regular-miss < renewal-miss.  What orders it is how many hashes each
     packet type computes (DESIGN §2), so count them exactly: wall-clock
     comparisons between the hashing types flip under other load on the
     host.  Pre-capability mints and capability checks per packet: *)
  let expected =
    Forwarder.Fastpath.
      [
        (Legacy_forward, (0, 0));
        (Request, (1, 0));
        (Regular_cached, (0, 0));
        (Regular_uncached, (1, 1));
        (Renewal_cached, (1, 0));
        (Renewal_uncached, (2, 1));
      ]
  in
  let fp = Forwarder.Fastpath.create ~hash:(module Counting_hash) () in
  let packets = 4 * Forwarder.Fastpath.flows in
  List.iter
    (fun (op, (precaps, caps)) ->
      Counting_hash.precaps := 0;
      Counting_hash.caps := 0;
      Forwarder.Fastpath.on_branch fp op ~packets (fun () ->
          for _ = 1 to 4 do
            Forwarder.Fastpath.pass fp op
          done);
      let name = Forwarder.Fastpath.op_name op in
      Alcotest.(check int) (name ^ " pre-capability hashes") (precaps * packets) !Counting_hash.precaps;
      Alcotest.(check int) (name ^ " capability hashes") (caps * packets) !Counting_hash.caps)
    expected;
  (* The hash-free types against a hashing one, by a wide margin. *)
  let t = ns fp ~passes:4 Forwarder.Fastpath.[ Request; Regular_cached; Legacy_forward ] in
  let request = t Forwarder.Fastpath.Request in
  Alcotest.(check bool) "cached is cheap" true (t Forwarder.Fastpath.Regular_cached < request /. 5.);
  Alcotest.(check bool) "legacy is cheap" true (t Forwarder.Fastpath.Legacy_forward < request /. 5.)

let siphash_variant_is_faster () =
  let t fp = ns fp ~passes:3 [ Forwarder.Fastpath.Regular_uncached ] Forwarder.Fastpath.Regular_uncached in
  let th = t (Forwarder.Fastpath.create ()) in
  let tl = t (Forwarder.Fastpath.create ~hash:(module Crypto.Keyed_hash.Fast) ()) in
  Alcotest.(check bool) (Printf.sprintf "siphash (%.0fns) < aes+sha (%.0fns)" tl th) true (tl < th)

(* --- Livelock model -------------------------------------------------------- *)

let output_equals_input_below_peak () =
  let out =
    Forwarder.Livelock.output_rate Forwarder.Livelock.Naive ~interrupt_s:3.5e-6
      ~processing_s:33e-9 ~input_pps:100_000.
  in
  Alcotest.(check (float 1e-6)) "lossless region" 100_000. out

let peak_formula () =
  Alcotest.(check (float 1.)) "1/(ti+tp)"
    (1. /. (3.5e-6 +. 1486e-9))
    (Forwarder.Livelock.peak_rate ~interrupt_s:3.5e-6 ~processing_s:1486e-9)

let paper_peaks_in_range () =
  (* With the paper's Table 1 costs and 3.5 us interrupts, peaks must land
     in the 160-280 kpps band of Fig. 12. *)
  List.iter
    (fun processing_s ->
      let peak = Forwarder.Livelock.peak_rate ~interrupt_s:3.5e-6 ~processing_s in
      Alcotest.(check bool)
        (Printf.sprintf "peak %.0f kpps" (peak /. 1e3))
        true
        (peak >= 160_000. && peak <= 290_000.))
    [ 33e-9; 460e-9; 439e-9; 1486e-9; 1821e-9 ]

let naive_livelocks_past_saturation () =
  let at rate =
    Forwarder.Livelock.output_rate Forwarder.Livelock.Naive ~interrupt_s:3.5e-6
      ~processing_s:1486e-9 ~input_pps:rate
  in
  let peak = Forwarder.Livelock.peak_rate ~interrupt_s:3.5e-6 ~processing_s:1486e-9 in
  Alcotest.(check bool) "declines past peak" true (at (peak *. 1.3) < peak);
  Alcotest.(check (float 1e-6)) "full livelock" 0. (at (1.1 /. 3.5e-6))

let lrp_holds_the_peak () =
  let peak = Forwarder.Livelock.peak_rate ~interrupt_s:3.5e-6 ~processing_s:1486e-9 in
  let out =
    Forwarder.Livelock.output_rate Forwarder.Livelock.Lrp ~interrupt_s:3.5e-6
      ~processing_s:1486e-9 ~input_pps:(3. *. peak)
  in
  Alcotest.(check (float 1e-6)) "flat at peak" peak out

let lrp_dominates_naive =
  QCheck.Test.make ~name:"livelock: LRP output >= naive output at any load" ~count:200
    QCheck.(float_range 0. 1e6)
    (fun input_pps ->
      let f d =
        Forwarder.Livelock.output_rate d ~interrupt_s:3.5e-6 ~processing_s:460e-9 ~input_pps
      in
      f Forwarder.Livelock.Lrp >= f Forwarder.Livelock.Naive -. 1e-9)

let output_never_exceeds_input =
  QCheck.Test.make ~name:"livelock: conservation (output <= input)" ~count:200
    QCheck.(pair (float_range 0. 1e6) (float_range 1e-9 1e-5))
    (fun (input_pps, processing_s) ->
      List.for_all
        (fun d ->
          Forwarder.Livelock.output_rate d ~interrupt_s:3.5e-6 ~processing_s ~input_pps
          <= input_pps +. 1e-9)
        [ Forwarder.Livelock.Naive; Forwarder.Livelock.Lrp ])

let simulation_matches_model_below_peak () =
  let measured =
    Forwarder.Livelock.simulate Forwarder.Livelock.Naive ~interrupt_s:3.5e-6 ~processing_s:460e-9
      ~input_pps:100_000.
  in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.0f ≈ 100k" measured)
    true
    (Float.abs (measured -. 100_000.) < 5_000.)

let simulation_shows_livelock () =
  let peak = Forwarder.Livelock.peak_rate ~interrupt_s:3.5e-6 ~processing_s:460e-9 in
  let over =
    Forwarder.Livelock.simulate Forwarder.Livelock.Naive ~interrupt_s:3.5e-6 ~processing_s:460e-9
      ~input_pps:(2. *. peak)
  in
  let lrp =
    Forwarder.Livelock.simulate Forwarder.Livelock.Lrp ~interrupt_s:3.5e-6 ~processing_s:460e-9
      ~input_pps:(2. *. peak)
  in
  Alcotest.(check bool)
    (Printf.sprintf "naive %.0f < lrp %.0f under overload" over lrp)
    true (over < lrp)

let series_shape () =
  let s = Forwarder.Livelock.series ~processing_s:1486e-9 () in
  Alcotest.(check int) "41 samples" 41 (List.length s);
  List.iter (fun (i, o) -> if o > i +. 1e-9 then Alcotest.fail "output above input") s

let suite =
  [
    Alcotest.test_case "all ops run" `Quick all_ops_run;
    Alcotest.test_case "branch check catches demotion" `Quick branch_check_catches_demotion;
    Alcotest.test_case "stage check" `Quick stage_check;
    Alcotest.test_case "table1 ordering" `Slow cost_ordering_matches_table1;
    Alcotest.test_case "siphash faster" `Slow siphash_variant_is_faster;
    Alcotest.test_case "below peak lossless" `Quick output_equals_input_below_peak;
    Alcotest.test_case "peak formula" `Quick peak_formula;
    Alcotest.test_case "paper peaks 160-280k" `Quick paper_peaks_in_range;
    Alcotest.test_case "naive livelock" `Quick naive_livelocks_past_saturation;
    Alcotest.test_case "lrp holds peak" `Quick lrp_holds_the_peak;
    QCheck_alcotest.to_alcotest lrp_dominates_naive;
    QCheck_alcotest.to_alcotest output_never_exceeds_input;
    Alcotest.test_case "simulation below peak" `Quick simulation_matches_model_below_peak;
    Alcotest.test_case "simulation livelock" `Quick simulation_shows_livelock;
    Alcotest.test_case "series shape" `Quick series_shape;
  ]

(* The benchmark harness regenerates every table and figure of the paper's
   evaluation:

   - Table 1 (per-packet processing cost) as Bechamel micro-benchmarks of
     the real router (AES-hash + HMAC-SHA1, like the Linux prototype),
     plus supporting micro-benchmarks (crypto primitives, header codec,
     flow cache, fair queues);
   - Fig. 12 (forwarding rate vs input rate) from the livelock model
     parameterized by Table 1 costs;
   - Figs. 8, 9, 10 and 11 as reduced-size simulation sweeps (the full
     paper-scale sweeps are available from bin/tva_sim).

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing: run a grouped test and print ns/run per case.    *)

let benchmark_and_print test =
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw_results = Benchmark.all cfg [ instance ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw_results in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-48s %12.1f ns/run\n%!" name est
      | Some _ | None -> Printf.printf "  %-48s %12s\n%!" name "n/a")
    rows

(* ------------------------------------------------------------------ *)
(* Table 1: the six packet-processing paths.                           *)

(* Table 1's six packet types on the real router under [hash]: the
   prototype's AES-hash + HMAC-SHA1, or the SipHash binding as the
   ablation for the hash-function choice.  Bechamel picks the run
   counts, so the branch check is that nothing was demoted. *)
let table1 ~name hash =
  let fp = Forwarder.Fastpath.create ~hash () in
  benchmark_and_print
    (Test.make_grouped ~name
       (List.map
          (fun op ->
            Test.make ~name:(Forwarder.Fastpath.op_name op)
              (Staged.stage (Forwarder.Fastpath.runner fp op)))
          Forwarder.Fastpath.all_ops));
  let demoted = (Tva.Router.counters (Forwarder.Fastpath.router fp)).Tva.Router.demotions in
  if demoted > 0 then begin
    Printf.eprintf "%s: %d packets were demoted, so some timings left their branch\n" name demoted;
    exit 1
  end

(* Supporting micro-benchmarks: the primitives Table 1 costs decompose
   into. *)
let primitive_tests () =
  let key16 = String.init 16 Char.chr in
  let msg = String.init 64 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let aes_key = Crypto.Aes128.expand_key key16 in
  let block = Bytes.make 16 'x' in
  let shim =
    Wire.Cap_shim.regular ~nonce:0x1234567890abL
      ~caps:
        [
          { Wire.Cap_shim.ts = 42; hash = 0xdeadbeefL };
          { Wire.Cap_shim.ts = 43; hash = 0xfeedfaceL };
        ]
      ~n_kb:32 ~t_sec:10 ~renewal:false ()
  in
  let encoded = Wire.Cap_shim.encode shim in
  Test.make_grouped ~name:"primitives"
    [
      Test.make ~name:"sha1 (64B)" (Staged.stage (fun () -> ignore (Crypto.Sha1.digest msg)));
      Test.make ~name:"aes128 block"
        (Staged.stage (fun () ->
             Crypto.Aes128.encrypt_block aes_key block ~src_off:0 block ~dst_off:0));
      Test.make ~name:"aes-hash mac (64B)"
        (Staged.stage (fun () -> ignore (Crypto.Aes_hash.mac ~key:key16 msg)));
      Test.make ~name:"hmac-sha1 (64B)"
        (Staged.stage (fun () -> ignore (Crypto.Hmac_sha1.mac ~key:key16 msg)));
      Test.make ~name:"siphash-2-4 (64B)"
        (Staged.stage (fun () -> ignore (Crypto.Siphash.mac ~key:key16 msg)));
      Test.make ~name:"cap header encode"
        (Staged.stage (fun () -> ignore (Wire.Cap_shim.encode shim)));
      Test.make ~name:"cap header decode"
        (Staged.stage (fun () -> ignore (Wire.Cap_shim.decode encoded)));
    ]

let queueing_tests () =
  let drr =
    Drr.create ~name:"bench" ~classify:(fun p -> Wire.Addr.to_int p.Wire.Packet.dst land 0xf) ()
  in
  let packets =
    Array.init 16 (fun i ->
        Wire.Packet.make
          ~src:(Wire.Addr.of_int (0x0a000000 + i))
          ~dst:(Wire.Addr.of_int (0xc0a80000 + i)) (Wire.Packet.Raw 1000))
  in
  let i = ref 0 in
  Test.make_grouped ~name:"queueing"
    [
      Test.make ~name:"drr enqueue+dequeue"
        (Staged.stage (fun () ->
             let p = packets.(!i land 0xf) in
             incr i;
             ignore (Qdisc.enqueue drr ~now:0. p);
             ignore (Qdisc.dequeue drr ~now:0.)));
    ]

(* ------------------------------------------------------------------ *)
(* Figure regenerations.                                               *)

let print_series title series =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-');
  print_string (Stats.Table.render (Workload.Scenario.render series))

let quick_base =
  {
    Workload.Experiment.default with
    Workload.Experiment.transfers_per_user = 20;
    max_time = 90.;
  }

let quick_counts = [ 1; 10; 40; 100 ]

let fig8 () =
  print_series "Fig 8: legacy traffic floods (fraction completed / avg transfer time)"
    (Workload.Scenario.fig8 ~attacker_counts:quick_counts ~base:quick_base ())

let fig9 () =
  print_series "Fig 9: request packet floods"
    (Workload.Scenario.fig9 ~attacker_counts:quick_counts ~base:quick_base ())

let fig10 () =
  print_series "Fig 10: authorized floods via a colluder"
    (Workload.Scenario.fig10 ~attacker_counts:quick_counts ~base:quick_base ())

let fig11 () =
  let runs = Workload.Scenario.fig11 ~base:quick_base ~duration:60. () in
  Printf.printf "\nFig 11: imprecise authorization (max transfer time per 5s bin)\n";
  Printf.printf "---------------------------------------------------------------\n";
  print_string (Stats.Table.render (Workload.Scenario.render_fig11 runs ~bins:5.))

let fig12 () =
  Printf.printf "\nFig 12: forwarding rate vs input rate (livelock model, Table 1 costs)\n";
  Printf.printf "----------------------------------------------------------------------\n";
  let costs =
    [
      ("legacy IP", 10e-9);
      ("regular w/ entry", 33e-9);
      ("request", 460e-9);
      ("renewal w/ entry", 439e-9);
      ("regular w/o entry", 1486e-9);
      ("renewal w/o entry", 1821e-9);
    ]
  in
  let table = Stats.Table.create ~columns:("input_kpps" :: List.map fst costs) in
  List.iter
    (fun input_pps ->
      Stats.Table.add_row table
        (Printf.sprintf "%.0f" (input_pps /. 1e3)
        :: List.map
             (fun (_, processing_s) ->
               Printf.sprintf "%.0f"
                 (Forwarder.Livelock.output_rate Forwarder.Livelock.Naive
                    ~interrupt_s:Forwarder.Livelock.default_interrupt_s ~processing_s ~input_pps
                 /. 1e3))
             costs))
    (List.init 11 (fun i -> float_of_int i *. 40_000.));
  print_string (Stats.Table.render table);
  List.iter
    (fun (name, processing_s) ->
      Printf.printf "  peak (%s): %.0f kpps\n" name
        (Forwarder.Livelock.peak_rate ~interrupt_s:Forwarder.Livelock.default_interrupt_s
           ~processing_s
        /. 1e3))
    costs

let () =
  Printf.printf "Table 1: per-packet processing cost (the router, AES-hash + HMAC-SHA1)\n";
  Printf.printf "----------------------------------------------------------------------\n";
  table1 ~name:"table1" (module Crypto.Keyed_hash.Prototype);
  Printf.printf "\nTable 1 ablation: SipHash binding (the simulator default)\n";
  Printf.printf "---------------------------------------------------------\n";
  table1 ~name:"table1-siphash" (module Crypto.Keyed_hash.Fast);
  Printf.printf "\nSupporting micro-benchmarks\n";
  Printf.printf "---------------------------\n";
  benchmark_and_print (primitive_tests ());
  benchmark_and_print (queueing_tests ());
  fig12 ();
  fig8 ();
  fig9 ();
  fig10 ();
  fig11 ()

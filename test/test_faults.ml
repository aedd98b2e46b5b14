(* Fault layer: spec parsing, the deterministic link models, the
   invariants checker's algebra, and the chaos harness's recovery and
   reproducibility guarantees. *)

let packet () =
  Wire.Packet.make ~src:(Wire.Addr.of_int 1) ~dst:(Wire.Addr.of_int 2)
    (Wire.Packet.Raw 1000)

(* --- Spec ---------------------------------------------------------------- *)

let spec_roundtrip () =
  List.iter
    (fun s ->
      match Faults.Spec.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok spec -> (
          let canonical = Faults.Spec.to_string spec in
          match Faults.Spec.parse canonical with
          | Error e -> Alcotest.failf "reparse %S: %s" canonical e
          | Ok spec2 ->
              Alcotest.(check string) ("canonical fixpoint of " ^ s) canonical
                (Faults.Spec.to_string spec2)))
    [
      "loss:bottleneck:p=0.01";
      "corrupt:access:p=0.1";
      "dup:all:p=0.05";
      "burst:bottleneck:pgb=0.02,pbg=0.3,pbad=0.5,pgood=0";
      "reorder:rbottleneck:p=0.02,delay=0.05";
      "down:bottleneck:at=5,for=2";
      "flap:bottleneck:at=2,until=8,period=3,down=0.5";
      "wipe:all:at=2,every=10";
      "rotate:left:at=3";
      "restart:right:at=4,for=0.25";
      "loss:bottleneck:p=0.01;wipe:all:at=2";
    ]

let spec_errors () =
  List.iter
    (fun s ->
      match Faults.Spec.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse %S should have failed" s)
    [
      "";
      "bogus:bottleneck:p=0.1";
      "loss:nowhere:p=0.1";
      "loss:bottleneck:p=1.5";
      "loss:bottleneck:p=nope";
      "loss:bottleneck:zap=0.1";
      "wipe:bottleneck:at=1";
      "down:left:at=1";
      "flap:bottleneck:period=0";
    ]

(* --- Link models --------------------------------------------------------- *)

let model_determinism () =
  let decisions seed =
    let rng = Rng.create ~seed in
    let m = Faults.Link_model.bernoulli ~rng ~p:0.3 ~action:Net.Fault_lose in
    List.init 100 (fun _ -> m (packet ()) = Net.Fault_lose)
  in
  Alcotest.(check (list bool)) "same seed, same decisions" (decisions 42) (decisions 42);
  let rng = Rng.create ~seed:7 in
  let never = Faults.Link_model.bernoulli ~rng ~p:0. ~action:Net.Fault_lose in
  let always = Faults.Link_model.bernoulli ~rng ~p:1. ~action:Net.Fault_dup in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never fires" true (never (packet ()) = Net.Fault_pass);
    Alcotest.(check bool) "p=1 always fires" true (always (packet ()) = Net.Fault_dup)
  done

let gilbert_elliott_states () =
  (* Forced into the bad state immediately and kept there, losing
     everything: p_gb=1, p_bg=0, p_bad=1. *)
  let rng = Rng.create ~seed:1 in
  let m = Faults.Link_model.gilbert_elliott ~rng ~p_gb:1. ~p_bg:0. ~p_bad:1. ~p_good:0. in
  for i = 1 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "packet %d lost in bad state" i)
      true
      (m (packet ()) = Net.Fault_lose)
  done

let compose_first_wins () =
  let rng = Rng.create ~seed:1 in
  let lose = Faults.Link_model.bernoulli ~rng ~p:1. ~action:Net.Fault_lose in
  let dup = Faults.Link_model.bernoulli ~rng ~p:1. ~action:Net.Fault_dup in
  Alcotest.(check bool) "first non-pass wins" true
    (Faults.Link_model.compose [ lose; dup ] (packet ()) = Net.Fault_lose);
  Alcotest.(check bool) "order matters" true
    (Faults.Link_model.compose [ dup; lose ] (packet ()) = Net.Fault_dup);
  Alcotest.(check bool) "all pass" true
    (Faults.Link_model.compose [] (packet ()) = Net.Fault_pass)

(* --- Invariants checker -------------------------------------------------- *)

let base_row () =
  let arr = Array.make Obs.Event.count 0 in
  let set e v = arr.(Obs.Event.to_int e) <- v in
  (* 100 packets: 10 legacy, 20 request, 70 regular; of the regular, 60
     nonce hits and 10 misses; of the misses, 6 revalidated and 4 demoted
     (all for lack of a cache entry). *)
  set Obs.Event.Packets_in 100;
  set Obs.Event.Legacy_in 10;
  set Obs.Event.Request_in 20;
  set Obs.Event.Regular_in 70;
  set Obs.Event.Nonce_hit 60;
  set Obs.Event.Nonce_miss 10;
  set Obs.Event.Regular_validated 6;
  set Obs.Event.Demoted 4;
  set Obs.Event.Demoted_no_cap 4;
  arr

let run_check ?(exp = Faults.Invariants.relaxed) ?(injected = 1) ?(latencies = []) arr =
  Faults.Invariants.check exp
    ~counters:[ ("left-router", arr) ]
    ~router_names:[ "left-router" ] ~injected ~reacquire_latencies:latencies ~fraction:1.

let invariants_clean () =
  Alcotest.(check bool) "consistent row passes" true (run_check (base_row ())).Faults.Invariants.ok

let invariants_catch_drop () =
  (* A router that dropped 2 of the nonce misses instead of demoting them:
     miss=10 but validated+demoted=8. *)
  let arr = base_row () in
  arr.(Obs.Event.to_int Obs.Event.Demoted) <- 2;
  arr.(Obs.Event.to_int Obs.Event.Demoted_no_cap) <- 2;
  let v = run_check arr in
  Alcotest.(check bool) "drop caught" false v.Faults.Invariants.ok;
  let failed =
    List.filter_map
      (fun (c : Faults.Invariants.check) ->
        if c.Faults.Invariants.ck_ok then None else Some c.ck_name)
      v.Faults.Invariants.checks
  in
  Alcotest.(check (list string)) "demote-not-drop is the failure" [ "demote-not-drop" ] failed

let invariants_expectations () =
  let exp =
    {
      Faults.Invariants.exp_injected = true;
      exp_demotions = true;
      exp_reacquire = true;
      exp_latency_bound = 0.5;
      exp_min_fraction = 0.9;
    }
  in
  let ok = run_check ~exp ~latencies:[ 0.1; 0.4 ] (base_row ()) in
  Alcotest.(check bool) "expectations met" true ok.Faults.Invariants.ok;
  let late = run_check ~exp ~latencies:[ 0.1; 0.6 ] (base_row ()) in
  Alcotest.(check bool) "latency bound enforced" false late.Faults.Invariants.ok;
  let silent = run_check ~exp ~injected:0 ~latencies:[ 0.1 ] (base_row ()) in
  Alcotest.(check bool) "unfired fault caught" false silent.Faults.Invariants.ok

(* --- Chaos runs ---------------------------------------------------------- *)

let quick_base =
  {
    Workload.Chaos.base_config with
    Workload.Experiment.transfers_per_user = 10;
    max_time = 60.;
  }

let suite_table ~jobs ~seed =
  let base = { quick_base with Workload.Experiment.seed } in
  Stats.Table.render
    (Workload.Chaos.render (Workload.Chaos.run_suite ~jobs ~base Workload.Chaos.default_suite))

let chaos_deterministic () =
  Alcotest.(check string) "same seed, same table" (suite_table ~jobs:1 ~seed:1)
    (suite_table ~jobs:1 ~seed:1)

let chaos_jobs_invariant () =
  Alcotest.(check string) "jobs 1 = jobs 4" (suite_table ~jobs:1 ~seed:3)
    (suite_table ~jobs:4 ~seed:3)

let wipe_recovers () =
  let cell =
    List.find (fun c -> c.Workload.Chaos.cl_label = "wipe") Workload.Chaos.default_suite
  in
  let o = Workload.Chaos.run_cell ~base:quick_base cell in
  Alcotest.(check bool) "verdict ok" true o.Workload.Chaos.oc_verdict.Faults.Invariants.ok;
  Alcotest.(check bool) "demoted senders reacquired" true (o.oc_latencies <> []);
  let worst = List.fold_left Float.max 0. o.oc_latencies in
  Alcotest.(check bool)
    (Printf.sprintf "worst %.3fs within the documented bound" worst)
    true
    (worst <= Workload.Chaos.reacquire_bound);
  Alcotest.(check bool) "completion above floor" true (o.oc_fraction >= 0.5)

let restart_recovers () =
  let cell =
    List.find (fun c -> c.Workload.Chaos.cl_label = "restart") Workload.Chaos.default_suite
  in
  let o = Workload.Chaos.run_cell ~base:quick_base cell in
  Alcotest.(check bool) "verdict ok" true o.Workload.Chaos.oc_verdict.Faults.Invariants.ok;
  Alcotest.(check bool) "senders reacquired after restart" true (o.oc_latencies <> [])

(* With the fault layer compiled in but no faults requested, the harness
   runs the exact pre-fault code path: repeated unfaulted runs are
   byte-identical (the fig8 regeneration in CI checks the same property
   against the committed seed output). *)
let unfaulted_runs_identical () =
  let render () =
    let base = { quick_base with Workload.Experiment.n_attackers = 10 } in
    Stats.Table.render
      (Workload.Scenario.render
         (Workload.Scenario.flood_sweep ~jobs:1
            ~schemes:[ ("tva", Workload.Scenario.sim_params |> fun p -> Workload.Scheme.tva ~params:p ()) ]
            ~attacker_counts:[ 1; 10 ] ~base
            ~attack:(fun ~rate_bps -> Workload.Experiment.Legacy_flood { rate_bps })
            ()))
  in
  Alcotest.(check string) "unfaulted sweep reproducible" (render ()) (render ())

let suite =
  [
    Alcotest.test_case "spec roundtrip" `Quick spec_roundtrip;
    Alcotest.test_case "spec errors" `Quick spec_errors;
    Alcotest.test_case "model determinism" `Quick model_determinism;
    Alcotest.test_case "gilbert-elliott" `Quick gilbert_elliott_states;
    Alcotest.test_case "compose" `Quick compose_first_wins;
    Alcotest.test_case "invariants clean" `Quick invariants_clean;
    Alcotest.test_case "invariants catch drop" `Quick invariants_catch_drop;
    Alcotest.test_case "invariants expectations" `Quick invariants_expectations;
    Alcotest.test_case "chaos deterministic" `Quick chaos_deterministic;
    Alcotest.test_case "chaos jobs-invariant" `Quick chaos_jobs_invariant;
    Alcotest.test_case "wipe recovers" `Quick wipe_recovers;
    Alcotest.test_case "restart recovers" `Quick restart_recovers;
    Alcotest.test_case "unfaulted identical" `Quick unfaulted_runs_identical;
  ]

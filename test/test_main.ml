let () =
  Alcotest.run "tva"
    [
      ("crypto", Test_crypto.suite);
      ("engine", Test_engine.suite);
      ("pool", Test_pool.suite);
      ("stats", Test_stats.suite);
      ("wire", Test_wire.suite);
      ("queueing", Test_queueing.suite);
      ("netsim", Test_netsim.suite);
      ("tcp", Test_tcp.suite);
      ("tva", Test_tva.suite);
      ("baselines", Test_baselines.suite);
      ("netfence", Test_netfence.suite);
      ("workload", Test_workload.suite);
      ("obs", Test_obs.suite);
      ("faults", Test_faults.suite);
      ("forwarder", Test_forwarder.suite);
      ("docs", Test_docs.suite);
    ]

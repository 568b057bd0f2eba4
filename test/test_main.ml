let () =
  Alcotest.run "ncdrf"
    [
      ("ir", Test_ir.suite);
      ("machine", Test_machine.suite);
      ("sched", Test_sched.suite);
      ("regalloc", Test_regalloc.suite);
      ("conflict", Test_conflict.suite);
      ("spill", Test_spill.suite);
      ("core", Test_core.suite);
      ("swap", Test_swap.suite);
      ("cache", Test_cache.suite);
      ("store", Test_store.suite);
      ("workloads", Test_workloads.suite);
      ("parallel", Test_parallel.suite);
      ("trace", Test_trace.suite);
      ("robustness", Test_robustness.suite);
      ("extensions", Test_extensions.suite);
      ("sim", Test_sim.suite);
      ("kcluster", Test_kcluster.suite);
      ("reqs", Test_requirements.suite);
      ("server", Test_server.suite);
    ]

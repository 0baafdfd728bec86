//! # jc-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation (§6) plus the
//! kernel perf suite:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_lab_scenarios` | the §6.2 runtimes (353/89/84/62.4 s/iter) |
//! | `fig6_gas_expulsion` | the four evolution stages of Fig 6 |
//! | `fig7_bridge_trace` | the Fig 7 calling sequence |
//! | `fig9_sc11_demo` | the SC11 transatlantic run |
//! | `fig10_overlay_view` | the IbisDeploy resource/job/overlay panels |
//! | `fig11_traffic_view` | the traffic visualization (IPL vs MPI) |
//! | `loopback_bandwidth` | the §5 ">8 Gbit/s loopback" claim |
//! | `perfsuite` | per-kernel timings, the committed `BENCH_*.json` rows |

#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub)]

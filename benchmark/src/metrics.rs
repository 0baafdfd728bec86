//! The metric and workload names, in one place. `BENCHMARK.json` at the
//! repository root declares the same names; `tests/contract.rs` fails
//! when the two disagree.

use crate::stats::Metric;

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] =
    ["cluster_local", "cluster_tcp_chatty", "wire_bulk_null", "service_open"];

/// A declared metric: name, unit, which direction is better, and (for
/// end-to-end metrics) the share of the parent's median it may worsen
/// by before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (end-to-end only; 0 for layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees. Every workload reports every one of
/// these; what the unit of work is differs per workload (README.md):
/// a coupled iteration on the three coupler workloads, a session on
/// `service_open`.
pub const END_TO_END: [Decl; 4] = [
    // All three timings are *quiet times*: every unit of work is
    // replayed many times in a run and its shortest replay counts
    // (README.md, "Quiet times"). On the shared virtual machine this was
    // sized on, interference only ever adds time: plain medians of
    // identical runs spread over 10–22 % of themselves in a busy hour,
    // these over 1–5 %. They still carry the widest bound the contract
    // allows, because the host also has spells, seconds to a minute
    // long, in which *everything* runs 1.45× slower (a busy sibling
    // hyperthread, by the look of it): a run that falls wholly inside
    // one reads 45 % high whatever the estimator, two such runs in ten
    // put the interquartile spread at 13 %, and a tighter bound would
    // then be a verdict on the neighbours, not on the code.
    e2e("latency_ms_p50", "ms", "lower", 0.25),
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single-layer metrics, from the traced round or a direct probe. A
/// layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: [Decl; 75] = [
    // jc_amuse::bridge
    layer("bridge.self_ms_per_iter", "ms", "lower"),
    layer("bridge.calls_per_iter", "count", "lower"),
    layer("bridge.iter_ms_p95", "ms", "lower"),
    layer("bridge.iter_ms_p99", "ms", "lower"),
    layer("bridge.iter_ms_max", "ms", "lower"),
    layer("bridge.local_twin_iter_ms", "ms", "lower"),
    layer("bridge.transport_ratio", "ratio", "lower"),
    // kernels: busy time at the ModelWorker boundary, modeled flops
    layer("nbody.evolve_ms_per_iter", "ms", "lower"),
    layer("sph.evolve_ms_per_iter", "ms", "lower"),
    layer("treegrav.kick_ms_per_iter", "ms", "lower"),
    layer("stellar.evolve_ms_per_iter", "ms", "lower"),
    layer("nbody.flops_per_iter", "count", "lower"),
    layer("sph.flops_per_iter", "count", "lower"),
    layer("treegrav.flops_per_iter", "count", "lower"),
    // kernels: direct probes at N=1024, worker path vs opt-in path
    layer("nbody.acc_jerk_ns_per_inter", "ns", "lower"),
    layer("nbody.acc_jerk_simd_ns_per_inter", "ns", "lower"),
    layer("sph.density_ms", "ms", "lower"),
    layer("sph.density_simd_ms", "ms", "lower"),
    layer("sph.forces_ms", "ms", "lower"),
    layer("sph.forces_simd_ms", "ms", "lower"),
    layer("treegrav.build_ms", "ms", "lower"),
    layer("treegrav.walk_ms", "ms", "lower"),
    layer("treegrav.walk_simd_ms", "ms", "lower"),
    // jc_compute
    layer("par.handoff_us", "us", "lower"),
    layer("par.speedup_t2", "ratio", "higher"),
    // jc_amuse::channel
    layer("channel.local_call_us", "us", "lower"),
    // jc_amuse::wire
    layer("wire.encode_GBps", "GB/s", "higher"),
    layer("wire.decode_GBps", "GB/s", "higher"),
    layer("wire.encode_small_ns", "ns", "lower"),
    layer("wire.decode_small_ns", "ns", "lower"),
    layer("wire.bytes_per_iter", "count", "lower"),
    layer("wire.frames_per_iter", "count", "lower"),
    // jc_amuse::reactor / jc_amuse::socket
    layer("reactor.rtt_small_us", "us", "lower"),
    layer("reactor.rtt_bulk_us", "us", "lower"),
    layer("socket.rtt_small_us", "us", "lower"),
    layer("socket.rtt_bulk_us", "us", "lower"),
    layer("reactor.rtt_small_xcpu_us", "us", "lower"),
    layer("socket.rtt_small_xcpu_us", "us", "lower"),
    layer("reactor.submit_ms_per_iter", "ms", "lower"),
    layer("reactor.wait_ms_per_iter", "ms", "lower"),
    layer("reactor.call_ms_per_iter", "ms", "lower"),
    layer("rpc.gravity_ms_per_iter", "ms", "lower"),
    layer("rpc.hydro_ms_per_iter", "ms", "lower"),
    layer("rpc.coupling_ms_per_iter", "ms", "lower"),
    layer("rpc.stellar_ms_per_iter", "ms", "lower"),
    layer("transport.retries", "count", "lower"),
    // jc_amuse::shard
    layer("shard.self_ms_per_iter", "ms", "lower"),
    layer("shard.overlap", "ratio", "higher"),
    // jc_amuse::checkpoint
    layer("checkpoint.snapshot_us", "us", "lower"),
    layer("checkpoint.restore_us", "us", "lower"),
    layer("checkpoint.encode_MBps", "MB/s", "higher"),
    layer("checkpoint.decode_MBps", "MB/s", "higher"),
    layer("checkpoint.crc32_GBps", "GB/s", "higher"),
    layer("checkpoint.bytes", "count", "lower"),
    // jc_service
    layer("service.submit_us", "us", "lower"),
    layer("service.shed_us", "us", "lower"),
    layer("service.solo_session_ms", "ms", "lower"),
    layer("service.bare_session_ms", "ms", "lower"),
    layer("service.session_ms_p50", "ms", "lower"),
    layer("service.session_ms_p99", "ms", "lower"),
    layer("service.queue_wait_ms_p50", "ms", "lower"),
    layer("service.served_per_s_overload", "1/s", "higher"),
    layer("service.shed_share_overload", "ratio", "lower"),
    layer("service.overload_session_ms_p50", "ms", "lower"),
    layer("service.gen_lag_ms_max", "ms", "lower"),
    // the benchmark itself
    layer("alloc.count_per_iter", "count", "lower"),
    layer("alloc.bytes_per_iter", "count", "lower"),
    layer("trace.iter_ms_p50", "ms", "lower"),
    layer("trace.untraced_iter_ms_p50", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.kernel_share_pct", "%", "higher"),
    layer("trace.self_sum_pct", "%", "higher"),
    layer("trace.spans_per_iter", "count", "lower"),
    layer("trace.spans_dropped", "count", "lower"),
    layer("failed_share", "ratio", "lower"),
];

/// The layer metrics of one traced run: every declared name, 0 until a
/// measurement fills it in, so each workload prints the same set.
pub struct LayerSheet {
    values: Vec<(f64, usize)>,
}

impl Default for LayerSheet {
    fn default() -> LayerSheet {
        LayerSheet { values: vec![(0.0, 0); PER_LAYER.len()] }
    }
}

impl LayerSheet {
    /// Record `value` (backed by `samples` observations) under `name`.
    /// Panics on an undeclared name: that is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let i = PER_LAYER
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        self.values[i] = (value, samples);
    }

    /// Read a recorded value back.
    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER.iter().position(|d| d.name == name).map(|i| self.values[i].0).unwrap_or(0.0)
    }

    /// All metrics in declaration order.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(self.values)
            .map(|(d, (value, samples))| Metric::new(d.name, value, d.unit, samples))
            .collect()
    }
}

/// Build the end-to-end metric list in declaration order.
pub fn end_to_end(values: &[(&'static str, f64, usize)]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|d| {
            let (_, value, samples) = values
                .iter()
                .find(|(n, _, _)| *n == d.name)
                .unwrap_or_else(|| panic!("end-to-end metric {} not measured", d.name));
            Metric::new(d.name, *value, d.unit, *samples)
        })
        .collect()
}

//! The calibrated performance model.
//!
//! The paper's lab machines are gone; their sustained throughputs on these
//! kernels are modeled here. The per-iteration work budgets (`WORK_*`) are
//! calibrated against the four §6.2 scenario runtimes — the analytic
//! sums in this module's tests and `tests/scenario_smoke.rs` hold the
//! paper-vs-modeled comparison (`table1_lab_scenarios` prints it). The
//! *shape* constraints the calibration must preserve: CPU-only is ~4×
//! slower than a local GPU; a faster remote GPU (Tesla C2050, 30 km away)
//! slightly beats the slow local GPU (GeForce 9600GT); the fully
//! distributed jungle wins overall.

use jc_amuse::wire::op;

/// Sustained double-precision GFLOP/s on the paper's kernels (calibrated,
/// not peak).
pub mod devices {
    /// Intel Core2 quad desktop (§6.2's "basic machine"), all four cores.
    pub const CORE2_QUAD: f64 = 4.0;
    /// One Core2 core.
    pub const CORE2_CORE: f64 = 1.0;
    /// NVIDIA GeForce 9600GT (the desktop GPU).
    pub const GEFORCE_9600GT: f64 = 60.0;
    /// NVIDIA Tesla C2050 (the LGM node GPU).
    pub const TESLA_C2050: f64 = 300.0;
    /// One DAS-4 GPU node (GTX480-class) used for Octgrav at TU Delft.
    pub const DAS4_GTX480: f64 = 150.0;
    /// One DAS-4 compute node (dual quad-core Xeon), all cores.
    pub const DAS4_NODE: f64 = 16.0;
}

/// Per-outer-iteration work budgets in GFLOP, calibrated to §6.2 (see the
/// module docs). The coupling (Fi/Octgrav) budget dominates on the CPU —
/// "We determined that the Fi coupler model was dominating the runtime in
/// the first scenario".
pub mod work {
    /// Coupling model (tree gravity between gas and stars), per iteration.
    pub const COUPLING_GFLOP: f64 = 412.0;
    /// Gravitational dynamics (PhiGRAPE), per iteration.
    pub const GRAVITY_GFLOP: f64 = 672.0;
    /// Gas dynamics (Gadget), per iteration.
    pub const GAS_GFLOP: f64 = 328.0;
    /// Stellar evolution (SSE): "nearly trivial" lookups.
    pub const SSE_GFLOP: f64 = 0.01;
}

/// The production problem size the calibration assumes (the paper's
/// simulation), versus which toy payload bytes are scaled up.
pub mod production {
    /// Gas particles in the production run.
    pub const N_GAS: usize = 100_000;
    /// Stars in the production run.
    pub const N_STARS: usize = 1_000;
}

/// Which model a worker runs (selects its work budget).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelKind {
    /// PhiGRAPE gravitational dynamics.
    Gravity,
    /// Gadget gas dynamics.
    Hydro,
    /// Octgrav / Fi coupling.
    Coupling,
    /// SSE stellar evolution.
    Stellar,
}

/// Per-worker performance profile: turns one RPC request into modeled
/// GFLOP of work, given the bridge's substep structure.
#[derive(Clone, Copy, Debug)]
pub struct PerfProfile {
    /// The model this worker runs.
    pub kind: ModelKind,
    /// Bridge substeps per outer iteration (work is spread across them).
    pub substeps: u32,
}

impl PerfProfile {
    /// Modeled work of one request frame, in GFLOP, keyed on its opcode
    /// byte ([`jc_amuse::wire::op`]): the proxy reads it off the frame it
    /// serves, never decoding a request of its own.
    ///
    /// The budgets follow the bridge's protocol (see `jc_amuse::bridge`):
    ///
    /// * `STEP` carries the model's per-iteration budget divided by the
    ///   substep count — gravity/hydro evolve once per substep, inside
    ///   the step. A bare `EVOLVE_TO` is the same evolve and carries the
    ///   same budget.
    /// * `COMPUTE_FIELD` is called `s+1` times per iteration — one
    ///   coupling field (both directions) per position epoch, once to
    ///   open the iteration and once after every step — so it carries
    ///   the coupling budget divided by `s+1`. A bare `COMPUTE_KICK` is
    ///   one direction of a field: half of that.
    /// * Everything else (snapshots, kicks, bookkeeping) is minor.
    pub fn work_gflop(&self, opcode: u8) -> f64 {
        let s = self.substeps as f64;
        match (self.kind, opcode) {
            (ModelKind::Gravity, op::STEP | op::EVOLVE_TO) => work::GRAVITY_GFLOP / s,
            (ModelKind::Hydro, op::STEP | op::EVOLVE_TO) => work::GAS_GFLOP / s,
            (ModelKind::Coupling, op::COMPUTE_FIELD) => work::COUPLING_GFLOP / (s + 1.0),
            (ModelKind::Coupling, op::COMPUTE_KICK) => work::COUPLING_GFLOP / (2.0 * (s + 1.0)),
            (ModelKind::Stellar, op::EVOLVE_STARS) => work::SSE_GFLOP,
            // snapshot serialization cost etc.
            (_, op::GET_PARTICLES | op::KICK | op::SET_MASSES) => 0.001,
            _ => 0.0001,
        }
    }
}

/// Byte-scale factor from a toy particle count up to the production size.
pub fn byte_scale(toy_n: usize, production_n: usize) -> f64 {
    assert!(toy_n > 0);
    production_n as f64 / toy_n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario1_analytic_sum_matches_paper() {
        // CPU-only: everything serialized on the Core2 quad.
        let t =
            (work::COUPLING_GFLOP + work::GRAVITY_GFLOP + work::GAS_GFLOP) / devices::CORE2_QUAD;
        assert!((t - 353.0).abs() < 2.0, "S1 analytic = {t}");
    }

    #[test]
    fn scenario2_analytic_matches_paper() {
        // coupling on the 9600GT, then gravity (GPU) || gas (CPU).
        let t = work::COUPLING_GFLOP / devices::GEFORCE_9600GT
            + (work::GRAVITY_GFLOP / devices::GEFORCE_9600GT)
                .max(work::GAS_GFLOP / devices::CORE2_QUAD);
        assert!((t - 89.0).abs() < 2.0, "S2 analytic = {t}");
    }

    #[test]
    fn scenario3_analytic_close_to_paper() {
        // coupling moves to the remote Tesla; compute drops ~5.5 s, WAN
        // chatter (modeled by netsim at run time) eats some of it back.
        let t = work::COUPLING_GFLOP / devices::TESLA_C2050
            + (work::GRAVITY_GFLOP / devices::GEFORCE_9600GT)
                .max(work::GAS_GFLOP / devices::CORE2_QUAD);
        assert!(t > 80.0 && t < 84.5, "S3 analytic (compute only) = {t}");
    }

    #[test]
    fn work_profile_splits_budgets_over_substeps() {
        let p = PerfProfile { kind: ModelKind::Coupling, substeps: 8 };
        // 8 substeps + 1 field evaluations = 9 calls per iteration
        assert!((p.work_gflop(op::COMPUTE_FIELD) * 9.0 - work::COUPLING_GFLOP).abs() < 1e-9);
        // one direction alone is half a field
        assert_eq!(p.work_gflop(op::COMPUTE_KICK) * 2.0, p.work_gflop(op::COMPUTE_FIELD));
        // one step per substep carries the evolve
        for (kind, budget) in
            [(ModelKind::Gravity, work::GRAVITY_GFLOP), (ModelKind::Hydro, work::GAS_GFLOP)]
        {
            let m = PerfProfile { kind, substeps: 8 };
            assert!((m.work_gflop(op::STEP) * 8.0 - budget).abs() < 1e-9);
            assert_eq!(m.work_gflop(op::STEP), m.work_gflop(op::EVOLVE_TO));
        }
    }

    #[test]
    fn byte_scale_sanity() {
        assert_eq!(byte_scale(1_000, 100_000), 100.0);
    }
}

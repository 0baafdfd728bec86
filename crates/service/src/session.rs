//! Session vocabulary: what a job asks for, every state it can be in,
//! and the typed rejections the admission controller hands back.

use jc_amuse::channel::ChannelStats;
use jc_amuse::worker::ParticleData;

/// Handle for one submitted session, unique for the life of a
/// [`crate::Service`].
pub type SessionId = u64;

/// What one session wants simulated: the embedded-cluster scenario
/// knobs ([`jc_amuse::EmbeddedCluster::build`]) plus run length and an
/// optional wall-clock budget.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Star count.
    pub stars: usize,
    /// Gas particle count.
    pub gas: usize,
    /// Fraction of the cluster mass in gas (in `(0, 1)`).
    pub gas_fraction: f64,
    /// Initial-conditions seed — the whole run is a pure function of
    /// this spec, which is what makes migration verifiable bitwise.
    pub seed: u64,
    /// Outer bridge iterations to run.
    pub iterations: u64,
    /// Substeps per outer iteration.
    pub substeps: u32,
    /// Wall-clock budget for the whole session in milliseconds,
    /// measured from submission (queue time counts — it is an SLA, not
    /// a compute meter). 0 means "use the service default"
    /// ([`crate::ServiceConfig::default_deadline_ms`], itself 0 =
    /// unbounded).
    pub deadline_ms: u64,
    /// Keep the final (stars, gas) snapshot in the session record so
    /// [`crate::Service::write_snapshot`] can stream it. Off by default:
    /// a thousand-session load run must stay memory-bounded.
    pub keep_snapshot: bool,
}

impl Default for SessionSpec {
    fn default() -> SessionSpec {
        SessionSpec {
            stars: 24,
            gas: 96,
            gas_fraction: 0.5,
            seed: 1,
            iterations: 4,
            substeps: 2,
            deadline_ms: 0,
            keep_snapshot: false,
        }
    }
}

/// Why a session terminated without completing. Every variant is a
/// *terminal, typed* outcome — the ladder's last rung is never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionFailure {
    /// The session's wall-clock budget ran out (queue wait included).
    DeadlineExceeded {
        /// The budget that was exhausted, in milliseconds.
        budget_ms: u64,
    },
    /// Every pool host this session may still run on is excluded (each
    /// one already failed it once) — migration has nowhere left to go.
    NoHealthyHost,
    /// The migration budget is spent or recovery itself failed.
    Unrecoverable {
        /// The final underlying error.
        detail: String,
    },
}

impl std::fmt::Display for SessionFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionFailure::DeadlineExceeded { budget_ms } => {
                write!(f, "session deadline of {budget_ms} ms exceeded")
            }
            SessionFailure::NoHealthyHost => write!(f, "no healthy host left to migrate to"),
            SessionFailure::Unrecoverable { detail } => write!(f, "unrecoverable: {detail}"),
        }
    }
}

/// Where a session is in its lifecycle. Poll with
/// [`crate::Service::status`]; block with [`crate::Service::wait`].
#[derive(Clone, Debug)]
pub enum SessionStatus {
    /// Admitted, waiting for a warm host.
    Queued,
    /// Executing on pool host `host` (after `migrations` migrations).
    Running {
        /// Pool index of the host currently running the session.
        host: usize,
        /// Checkpoint migrations so far.
        migrations: u32,
    },
    /// Finished every iteration.
    Completed {
        /// Iterations run (equals the spec's request).
        iterations: u64,
        /// Checkpoint migrations survived on the way.
        migrations: u32,
        /// FNV-1a digest over the final (stars, gas) state bits — two
        /// sessions with the same [`SessionSpec`] must agree on this no
        /// matter which hosts ran them or how often they migrated.
        digest: u64,
        /// Wall-clock from submission to completion, microseconds.
        wall_us: u64,
        /// Channel traffic of the whole session, summed over all four
        /// worker channels and every host it ran on.
        stats: ChannelStats,
    },
    /// Terminated with a typed failure.
    Failed {
        /// Why.
        failure: SessionFailure,
        /// Migrations attempted before giving up.
        migrations: u32,
    },
}

impl SessionStatus {
    /// Completed or Failed — safe to stop polling.
    pub fn is_terminal(&self) -> bool {
        matches!(self, SessionStatus::Completed { .. } | SessionStatus::Failed { .. })
    }
}

/// Typed admission rejection. Submission never blocks and never queues
/// unboundedly: past these limits the request is shed immediately.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The global run queue is full.
    Overloaded {
        /// Sessions already queued.
        queued: usize,
        /// The configured queue-depth bound.
        limit: usize,
    },
    /// This tenant is at its in-flight (queued + running) cap.
    QuotaExceeded {
        /// The tenant that hit its cap.
        tenant: String,
        /// That tenant's sessions currently in flight.
        in_flight: usize,
        /// The configured per-tenant bound.
        limit: usize,
    },
    /// The service is draining for shutdown.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { queued, limit } => {
                write!(f, "overloaded: {queued} sessions queued (limit {limit})")
            }
            SubmitError::QuotaExceeded { tenant, in_flight, limit } => {
                write!(
                    f,
                    "quota exceeded: tenant {tenant:?} has {in_flight} in flight (limit {limit})"
                )
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// FNV-1a over the bit patterns of both snapshots — the migration
/// test's equality witness. Bitwise, not approximate: checkpoint
/// restore + replay is exact, so the digest must be too.
pub fn state_digest(stars: &ParticleData, gas: &ParticleData) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: f64| {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for p in [stars, gas] {
        eat(p.mass.len() as f64);
        for i in 0..p.mass.len() {
            eat(p.mass[i]);
            for k in 0..3 {
                eat(p.pos[i][k]);
                eat(p.vel[i][k]);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_and_reproduces() {
        let mut a =
            ParticleData { mass: vec![1.0, 2.0], pos: vec![[0.0; 3]; 2], vel: vec![[0.5; 3]; 2] };
        let b = a.clone();
        let gas = ParticleData::default();
        assert_eq!(state_digest(&a, &gas), state_digest(&b, &gas));
        a.vel[1][2] += 1e-15;
        assert_ne!(state_digest(&a, &gas), state_digest(&b, &gas));
    }

    #[test]
    fn rejections_and_failures_render() {
        let e = SubmitError::Overloaded { queued: 9, limit: 8 };
        assert!(e.to_string().contains("overloaded"));
        let e = SubmitError::QuotaExceeded { tenant: "t".into(), in_flight: 3, limit: 2 };
        assert!(e.to_string().contains("quota"));
        let f = SessionFailure::DeadlineExceeded { budget_ms: 10 };
        assert!(f.to_string().contains("10 ms"));
    }
}

//! Middleware adapters and automatic adapter selection.

use jc_netsim::SimDuration;

/// The middlewares JavaGAT adapters exist for in this reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MiddlewareKind {
    /// Fork/exec on the local machine (no middleware).
    Local,
    /// Plain SSH to a reachable host.
    Ssh,
    /// Sun Grid Engine batch queue.
    Sge,
    /// PBS/Torque batch queue.
    Pbs,
    /// Globus GRAM (heavier handshake in front of a batch queue).
    Globus,
    /// Zorilla peer-to-peer scheduling, modeled by its latency profile
    /// alone (the P2P overlay itself is not simulated).
    Zorilla,
}

impl MiddlewareKind {
    /// Submission overhead: the time between the submit call arriving at
    /// the head node and the job being visible in the queue (or running,
    /// for queue-less adapters). Calibrated to folklore magnitudes: ssh is
    /// instant-ish, batch schedulers poll on multi-second cycles, GRAM adds
    /// a heavyweight authentication round.
    pub fn submit_overhead(self) -> SimDuration {
        match self {
            MiddlewareKind::Local => SimDuration::from_millis(5),
            MiddlewareKind::Ssh => SimDuration::from_millis(150),
            MiddlewareKind::Sge => SimDuration::from_secs(1),
            MiddlewareKind::Pbs => SimDuration::from_secs(2),
            MiddlewareKind::Globus => SimDuration::from_secs(5),
            MiddlewareKind::Zorilla => SimDuration::from_millis(300),
        }
    }

    /// Does this adapter schedule through the site batch queue?
    pub fn uses_batch_queue(self) -> bool {
        matches!(self, MiddlewareKind::Sge | MiddlewareKind::Pbs | MiddlewareKind::Globus)
    }

    /// Adapter name as JavaGAT would report it.
    pub fn name(self) -> &'static str {
        match self {
            MiddlewareKind::Local => "local",
            MiddlewareKind::Ssh => "sshtrilead",
            MiddlewareKind::Sge => "sge",
            MiddlewareKind::Pbs => "pbs",
            MiddlewareKind::Globus => "globus",
            MiddlewareKind::Zorilla => "zorilla",
        }
    }
}

/// Errors from adapter selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdapterError {
    /// The resource supports none of the preferred middlewares.
    NoAdapter,
}

/// Default preference order: cheap and direct first, heavyweight last —
/// JavaGAT tries adapters in order until one succeeds.
pub const DEFAULT_PREFERENCE: [MiddlewareKind; 6] = [
    MiddlewareKind::Local,
    MiddlewareKind::Ssh,
    MiddlewareKind::Sge,
    MiddlewareKind::Pbs,
    MiddlewareKind::Globus,
    MiddlewareKind::Zorilla,
];

/// Pick the first middleware in `preference` that the resource supports.
/// An empty preference list uses [`DEFAULT_PREFERENCE`].
pub fn select_adapter(
    supported: &[MiddlewareKind],
    preference: &[MiddlewareKind],
) -> Result<MiddlewareKind, AdapterError> {
    let order: &[MiddlewareKind] =
        if preference.is_empty() { &DEFAULT_PREFERENCE } else { preference };
    order.iter().copied().find(|k| supported.contains(k)).ok_or(AdapterError::NoAdapter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_respects_preference_order() {
        let supported = [MiddlewareKind::Pbs, MiddlewareKind::Ssh];
        assert_eq!(select_adapter(&supported, &[]), Ok(MiddlewareKind::Ssh));
        assert_eq!(
            select_adapter(&supported, &[MiddlewareKind::Pbs, MiddlewareKind::Ssh]),
            Ok(MiddlewareKind::Pbs)
        );
    }

    #[test]
    fn no_adapter_error() {
        assert_eq!(
            select_adapter(&[MiddlewareKind::Globus], &[MiddlewareKind::Ssh]),
            Err(AdapterError::NoAdapter)
        );
    }

    #[test]
    fn overheads_ordered_sanely() {
        assert!(MiddlewareKind::Ssh.submit_overhead() < MiddlewareKind::Sge.submit_overhead());
        assert!(MiddlewareKind::Pbs.submit_overhead() < MiddlewareKind::Globus.submit_overhead());
        // the whole of Zorilla in this stack (docs/ARCHITECTURE.md, §3)
        assert_eq!(MiddlewareKind::Zorilla.submit_overhead(), SimDuration::from_millis(300));
    }

    #[test]
    fn batch_queue_usage() {
        assert!(MiddlewareKind::Pbs.uses_batch_queue());
        assert!(!MiddlewareKind::Ssh.uses_batch_queue());
        assert!(!MiddlewareKind::Zorilla.uses_batch_queue());
    }
}

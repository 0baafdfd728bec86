//! The registry of `JC_*` environment variables.
//!
//! Environment knobs are invisible API: a `std::env::var("JC_…")` read
//! buried in a kernel changes behavior with no type to grep for and no
//! place a user can discover it. Every `JC_*` variable the workspace
//! reads must have an entry here, and the `env-registry` lint in
//! `jc-lint` enforces the loop in both directions: an unregistered read
//! fails the gate, and so does a registered entry that is never read
//! (dead knob) or not documented in the README.
//!
//! This table is data, not mechanism — call sites keep reading the
//! environment directly, and none caches the value: `par::auto_threads`
//! and `reactor::net_timeout` read it on every call, so an in-process
//! change takes effect on the next read. The registry exists so the
//! full set of knobs is one reviewable, documented list.

/// Every `JC_*` environment variable the workspace reads, with a
/// one-line description. Keep alphabetized.
pub const JC_ENV: &[(&str, &str)] = &[
    (
        "JC_NET_TIMEOUT_MS",
        "TCP client I/O timeout in milliseconds: bounds teardown drains and every wait of a \
         retry-enabled channel (a channel without retry waits for its reply indefinitely); \
         defaults to 5000.",
    ),
    (
        "JC_POOL_SIZE",
        "Warm-host count for the multi-session service pool (jc_service::ServiceConfig::from_env); \
         defaults to 2.",
    ),
    (
        "JC_SESSION_DEADLINE_MS",
        "Default per-session deadline budget for the multi-session service, measured from \
         submission (queue time counts); 0 or unset means no deadline.",
    ),
    (
        "JC_THREADS",
        "Worker-thread count for the parallel chunking core (and the rayon shim); \
         defaults to the number of available CPUs.",
    ),
];

/// Look up the description for a registered variable.
pub fn describe(name: &str) -> Option<&'static str> {
    JC_ENV.iter().find(|(n, _)| *n == name).map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_alphabetized_and_described() {
        for pair in JC_ENV.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} out of order", pair[1].0);
        }
        for (name, desc) in JC_ENV {
            assert!(name.starts_with("JC_"), "{name} is not a JC_ knob");
            assert!(!desc.trim().is_empty(), "{name} lacks a description");
        }
    }

    #[test]
    fn describe_finds_registered_knobs() {
        assert!(describe("JC_THREADS").is_some());
        assert!(describe("JC_NONEXISTENT").is_none());
    }
}

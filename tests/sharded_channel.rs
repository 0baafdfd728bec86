//! Sharded worker pools must be numerically invisible. The coupling
//! kick evaluates each target independently against a tree built from
//! the sources alone, so fanning it over 1, 2 or 3 workers — threads or
//! TCP sockets — reproduces the unsharded answer bitwise; range-sharded
//! gravity state ops do too. The bodies live in the shared harness
//! (`tests/common/mod.rs`); `tests/reactor_equivalence.rs` runs them on
//! the reactor row.

mod common;

use common::Transport;

#[test]
fn sharded_coupling_equivalence_over_threads_and_sockets() {
    common::coupling_pools_match_the_unsharded_worker(&[Transport::Thread, Transport::Socket]);
}

#[test]
fn sharded_state_ops_equivalence_over_sockets() {
    common::state_ops_pools_match_the_unsharded_worker(Transport::Socket);
}

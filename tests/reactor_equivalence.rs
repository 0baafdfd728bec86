//! The transport contract on its `Reactor` row: [`ReactorChannel`]s on
//! one shared reactor, pipelining their fan-out. Nothing about them may
//! be observable except latency: a whole bridge is bitwise equal to the
//! naive oracle, pools of K = 1, 2, 3 shards reproduce the unsharded
//! worker, and the byte accounting equals the modeled wire sizes. The
//! bodies live in the shared harness (`tests/common/mod.rs`), which the
//! socket and thread rows run too.
//!
//! [`ReactorChannel`]: jungle::amuse::reactor::ReactorChannel

mod common;

use common::Transport;

#[test]
fn bridge_over_reactor_is_bitwise_identical_to_local() {
    common::bridge_over_tcp_matches_the_oracle(Transport::Reactor);
}

#[test]
fn reactor_pools_match_blocking_pools_for_k_1_2_3() {
    common::coupling_pools_match_the_unsharded_worker(&[Transport::Reactor]);
}

#[test]
fn reactor_state_ops_match_local_pipelined() {
    common::state_ops_pools_match_the_unsharded_worker(Transport::Reactor);
}

#[test]
fn reactor_stats_match_modeled_wire_sizes() {
    common::stats_match_modeled_wire_sizes(Transport::Reactor);
}

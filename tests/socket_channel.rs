//! The transport contract on its `Socket` row: each [`SocketChannel`]
//! alone on a private reactor, every worker behind a loopback TCP
//! server. A whole bridge over it is bitwise equal to the naive oracle,
//! and its byte counters, measured from real traffic, equal the modeled
//! `wire_size()` sums. The bodies live in the shared harness
//! (`tests/common/mod.rs`), which runs them on every TCP row.
//!
//! [`SocketChannel`]: jungle::amuse::SocketChannel

mod common;

use common::Transport;

#[test]
fn bridge_over_tcp_is_bitwise_identical_to_local() {
    common::bridge_over_tcp_matches_the_oracle(Transport::Socket);
}

#[test]
fn socket_stats_match_modeled_wire_sizes() {
    common::stats_match_modeled_wire_sizes(Transport::Socket);
}

//! Real (wall-clock) loopback-socket measurement.
//!
//! §5: "The connection is created using a local loopback socket.
//! Benchmarks show that this connection is over 8 Gbit/second even on a
//! modest laptop, has an extremely small latency". This module measures
//! that pipe as this reproduction builds it: one 127.0.0.1 TCP
//! connection with Nagle's algorithm off, carrying [`jc_amuse::wire`]
//! frames, the codec every socket channel speaks.

use jc_amuse::wire::{self, op};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Loopback measurement results.
#[derive(Clone, Copy, Debug)]
pub struct LoopbackReport {
    /// Sustained one-way throughput, Gbit/s.
    pub gbit_per_s: f64,
    /// Mean round-trip latency for minimal messages, microseconds.
    pub rtt_us: f64,
    /// Bytes transferred in the throughput phase.
    pub bytes: u64,
}

/// Stream `count` `SetMasses` frames of `msg_bytes` payload each (a
/// multiple of 8) over a loopback socket until the peer acknowledges
/// them, then ping-pong `pings` header-only `Ping` frames, reporting
/// throughput and latency. `bytes` is the payload the peer counted.
pub fn measure(msg_bytes: usize, count: usize, pings: usize) -> LoopbackReport {
    assert!(msg_bytes > 0 && msg_bytes.is_multiple_of(8) && count > 0 && pings > 0);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback address");
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept loopback");
        s.set_nodelay(true).expect("set nodelay");
        serve(&mut s, count);
    });
    let mut s = TcpStream::connect(addr).expect("connect loopback");
    s.set_nodelay(true).expect("set nodelay");
    let (mut frame, mut buf) = (Vec::new(), Vec::new());

    // throughput: one-way stream, the peer acknowledges the bytes it read
    wire::encode_set_masses(&vec![0.0; msg_bytes / 8], &mut frame);
    let t0 = Instant::now();
    for _ in 0..count {
        s.write_all(&frame).expect("peer reads");
    }
    let n = wire::read_frame(&mut s, &mut buf).expect("peer acknowledges");
    let dt = t0.elapsed().as_secs_f64();
    let total = wire::decode_ok(&buf[..n]).expect("an Ok acknowledgement") as u64;
    let gbit = total as f64 * 8.0 / dt / 1e9;

    // latency: ping-pong minimal frames
    wire::encode_simple_request(op::PING, &mut frame);
    let t0 = Instant::now();
    for _ in 0..pings {
        s.write_all(&frame).expect("peer reads");
        wire::read_frame(&mut s, &mut buf).expect("peer echoes");
    }
    let rtt = t0.elapsed().as_secs_f64() / pings as f64 * 1e6;
    drop(s);
    peer.join().expect("peer joins");

    LoopbackReport { gbit_per_s: gbit, rtt_us: rtt, bytes: total }
}

/// The peer's side of [`measure`]: read `count` frames, acknowledge
/// their payload bytes in the flops field of one `Ok` frame, then echo
/// every frame back until the sender hangs up.
fn serve(s: &mut TcpStream, count: usize) {
    let mut buf = Vec::new();
    let mut total = 0u64;
    for _ in 0..count {
        let n = wire::read_frame(s, &mut buf).expect("sender writes");
        total += (n - wire::HEADER_LEN) as u64;
    }
    let mut ack = Vec::new();
    wire::encode_ok_frame(total as f64, &mut ack);
    s.write_all(&ack).expect("sender reads");
    while let Ok(n) = wire::read_frame(s, &mut buf) {
        s.write_all(&buf[..n]).expect("sender reads");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_moves_all_bytes() {
        let r = measure(1 << 16, 64, 16);
        assert_eq!(r.bytes, 64 * (1 << 16));
        assert!(r.gbit_per_s > 0.1, "throughput {} Gbit/s", r.gbit_per_s);
        assert!(r.rtt_us < 10_000.0, "rtt {} us", r.rtt_us);
    }
}

//! Graceful drain pin: a v2 `Shutdown` (or `Stop`) arriving *behind* a
//! burst of requests must not cost any in-flight response.
//!
//! The server replies frame by frame: every reply is written before the
//! next request is taken. The whole burst is written in one syscall, so
//! most of it lands in the server's `FrameDecoder` read-ahead together
//! and later frames are served from bytes already buffered, with no
//! further `read`. The hazard this pins against: a serve loop that
//! blocks in `read` while complete frames sit in its buffer, or that
//! exits on Stop/Shutdown before the replies ahead of it are written —
//! the coupler would see its last few calls vanish (`jungle-worker`
//! wraps this same `WorkerServer::serve` loop).

use jc_amuse::wire;
use jc_amuse::worker::{GravityWorker, Response};
use jc_nbody::plummer::plummer_sphere;
use jc_nbody::Backend;
use std::io::Write;
use std::net::TcpStream;

/// Drive one burst of `kicks` mutating requests followed by the
/// shutdown opcode, all written in a single syscall, and count the
/// response frames that come back.
fn drain_after(kicks: usize, shutdown_op: u8) {
    let ics = plummer_sphere(16, 7);
    let (addr, handle) =
        jc_amuse::spawn_tcp_worker("drain", move || GravityWorker::new(ics, Backend::CpuParallel));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // burst: `kicks` mutating frames, then Stop/Shutdown right behind
    let dv = vec![[1e-4, -2e-4, 3e-4]; 16];
    let mut burst = Vec::new();
    let mut frame = Vec::new();
    for i in 0..kicks {
        wire::kick_frame(&dv).encode(&mut frame);
        wire::set_seq(&mut frame, (i + 1) as u16);
        burst.extend_from_slice(&frame);
    }
    wire::encode_simple_request(shutdown_op, &mut frame);
    wire::set_seq(&mut frame, (kicks + 1) as u16);
    burst.extend_from_slice(&frame);
    stream.write_all(&burst).expect("one-syscall burst");

    // every response must arrive: kicks × Ok, then the shutdown ack
    let mut rbuf = Vec::new();
    for i in 0..kicks {
        let n = wire::read_frame(&mut stream, &mut rbuf)
            .unwrap_or_else(|e| panic!("kick response {i} lost in drain: {e}"));
        match wire::decode_response(&rbuf[..n]).expect("decode kick response") {
            Response::Ok { .. } => {}
            other => panic!("kick {i} answered {other:?}"),
        }
    }
    let n = wire::read_frame(&mut stream, &mut rbuf).expect("shutdown ack lost in drain");
    match wire::decode_response(&rbuf[..n]).expect("decode shutdown ack") {
        Response::Ok { .. } => {}
        other => panic!("shutdown answered {other:?}"),
    }
    handle.join().expect("server thread").expect("clean server exit");
}

#[test]
fn shutdown_behind_a_pipelined_burst_loses_no_response() {
    drain_after(8, wire::op::SHUTDOWN);
}

#[test]
fn stop_behind_a_pipelined_burst_loses_no_response() {
    drain_after(8, wire::op::STOP);
}

#[test]
fn shutdown_behind_a_long_burst_loses_no_response() {
    // a longer burst: ~40 KB, whatever pieces the kernel delivers it in
    drain_after(96, wire::op::SHUTDOWN);
}

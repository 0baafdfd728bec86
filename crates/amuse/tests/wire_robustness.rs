//! Robustness tests for the wire layer: truncated frames, wrong magic or
//! version bytes, unknown opcodes, hostile length prefixes, and
//! inconsistent aux counts must all come back as a [`WireError`] — never
//! a panic, and never an allocation sized from attacker-controlled
//! numbers. The server must survive all of it and keep serving.

use jc_amuse::wire::{
    self, decode_request, decode_response, encode_request, encode_response, op, read_frame,
    WireError, HEADER_LEN, MAX_PAYLOAD,
};
use jc_amuse::worker::{CouplingWorker, GravityWorker, ParticleData, Request, Response};
use jc_amuse::{Channel, SocketChannel};
use jc_nbody::plummer::plummer_sphere;
use jc_nbody::Backend;
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};

fn valid_request_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request(&Request::Kick(vec![[1.0, 2.0, 3.0]; 4]), &mut buf);
    buf
}

fn step_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request(&Request::Step { dv: vec![[1.0, 2.0, 3.0]; 4], n: 2, t: 0.25 }, &mut buf);
    buf
}

/// A field request over 3 stars and 5 gas; `prime` carries the masses.
fn field_request(prime: bool, star_range: (usize, usize), gas_range: (usize, usize)) -> Request {
    Request::ComputeField {
        star_pos: vec![[1.0, 0.0, 0.0]; 3],
        gas_pos: vec![[0.0, 1.0, 0.0]; 5],
        masses: prime.then(|| (vec![0.5; 3], vec![0.1; 5])),
        star_range,
        gas_range,
    }
}

fn field_frame(prime: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request(&field_request(prime, (1, 3), (0, 4)), &mut buf);
    buf
}

/// The server's readers of the bulk request frames — the kick, step
/// and field views — run over `frame`: each one's error, if any, and
/// how many column elements they sized.
fn view_errors(frame: &[u8]) -> ([Option<WireError>; 3], usize) {
    let (mut dv, mut cols) = (Vec::new(), [Vec::new(), Vec::new()]);
    let (mut star_mass, mut gas_mass) = (Vec::new(), Vec::new());
    let errors = [
        wire::view_kick(frame, &mut dv).err(),
        wire::view_step(frame, &mut dv).err(),
        wire::view_compute_field(frame, &mut cols, (&mut star_mass, &mut gas_mass)).err(),
    ];
    let columns: usize = cols.iter().map(Vec::capacity).sum();
    (errors, dv.capacity() + columns + star_mass.capacity() + gas_mass.capacity())
}

/// A positions-only step answer.
fn stepped_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response(&Response::Stepped { pos: vec![[0.5; 3]; 3], flops: 9.0 }, &mut buf);
    buf
}

#[test]
fn every_truncation_of_a_valid_frame_errors_cleanly() {
    // the bulk request frames cut at every byte, through the owned
    // decoder and the views the server runs
    for frame in [valid_request_frame(), step_frame(), field_frame(true), field_frame(false)] {
        for cut in 0..frame.len() {
            assert!(decode_request(&frame[..cut]).is_err(), "{cut}-byte prefix");
            let (errors, _) = view_errors(&frame[..cut]);
            assert!(errors.iter().all(Option::is_some), "{cut}-byte prefix: {errors:?}");
        }
    }
    let frame = stepped_frame();
    for cut in 0..frame.len() {
        assert!(decode_response(&frame[..cut]).is_err(), "{cut}-byte prefix");
        assert!(wire::decode_stepped_into(&frame[..cut], &mut Vec::new()).is_err());
    }

    let frame = valid_request_frame();
    for cut in 0..frame.len() {
        let r = decode_request(&frame[..cut]);
        assert!(r.is_err(), "decode of {cut}-byte prefix must fail");
        // streamed reads fail too (EOF mid-frame or clean close at 0)
        let mut buf = Vec::new();
        let r = read_frame(&mut Cursor::new(&frame[..cut]), &mut buf);
        match r {
            Err(WireError::Closed) => assert_eq!(cut, 0, "Closed only before any bytes"),
            Err(WireError::Truncated { .. }) => {}
            other => panic!("cut={cut}: {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let mut frame = valid_request_frame();
    frame[0] ^= 0xFF;
    assert!(matches!(decode_request(&frame), Err(WireError::BadMagic(_))));

    let mut frame = valid_request_frame();
    frame[4] = 99; // version byte
    assert_eq!(decode_request(&frame).unwrap_err(), WireError::BadVersion(99));
}

#[test]
fn unknown_opcodes_are_rejected() {
    let mut frame = valid_request_frame();
    frame[5] = 0x77;
    assert_eq!(decode_request(&frame).unwrap_err(), WireError::UnknownOpcode(0x77));
    // a request opcode is not a valid response and vice versa
    let mut buf = Vec::new();
    encode_response(&Response::Ok { flops: 1.0 }, &mut buf);
    assert_eq!(decode_request(&buf).unwrap_err(), WireError::UnknownOpcode(op::RESP_OK));
    assert_eq!(
        decode_response(&valid_request_frame()).unwrap_err(),
        WireError::UnknownOpcode(op::KICK)
    );
}

#[test]
fn oversized_length_prefix_errors_before_allocating() {
    for hostile_len in [MAX_PAYLOAD + 1, u64::MAX, u64::MAX / 2] {
        let mut frame = valid_request_frame();
        frame[8..16].copy_from_slice(&hostile_len.to_le_bytes());
        assert_eq!(decode_request(&frame).unwrap_err(), WireError::Oversized(hostile_len));

        // the streaming reader must reject from the header alone: the
        // receive buffer never grows towards the hostile length
        let mut buf = Vec::new();
        let r = read_frame(&mut Cursor::new(&frame), &mut buf);
        assert_eq!(r, Err(WireError::Oversized(hostile_len)));
        assert!(
            buf.capacity() <= HEADER_LEN + 4096,
            "buffer sized from a hostile length prefix: {}",
            buf.capacity()
        );
    }
}

#[test]
fn stalled_peer_with_maximum_length_prefix_pins_only_one_chunk() {
    // a header that legally declares MAX_PAYLOAD and then stalls (here:
    // EOF) must not make the reader allocate the full 256 MiB — the
    // scratch grows only one READ_CHUNK past what actually arrived
    let mut frame = valid_request_frame();
    frame.truncate(HEADER_LEN);
    frame[5] = op::KICK;
    frame[8..16].copy_from_slice(&wire::MAX_PAYLOAD.to_le_bytes());
    frame[16..24].copy_from_slice(&(wire::MAX_PAYLOAD / 24).to_le_bytes());
    let mut buf = Vec::new();
    let r = read_frame(&mut Cursor::new(&frame), &mut buf);
    assert!(matches!(r, Err(WireError::Truncated { .. })), "{r:?}");
    assert!(
        buf.capacity() <= HEADER_LEN + 2 * wire::READ_CHUNK,
        "stalled peer pinned {} bytes",
        buf.capacity()
    );
}

#[test]
fn inconsistent_aux_counts_are_rejected() {
    // ComputeKick whose aux counts do not add up to the payload length
    let mut buf = Vec::new();
    encode_request(
        &Request::ComputeKick {
            targets: vec![[0.0; 3]; 2],
            source_pos: vec![[0.0; 3]; 3],
            source_mass: vec![1.0; 3],
        },
        &mut buf,
    );
    buf[16..24].copy_from_slice(&100u64.to_le_bytes()); // lie about target count
    assert!(matches!(decode_request(&buf), Err(WireError::BadLength { .. })));

    // Particles whose count disagrees with the payload
    let mut buf = Vec::new();
    encode_response(
        &Response::Particles(ParticleData {
            mass: vec![1.0; 3],
            pos: vec![[0.0; 3]; 3],
            vel: vec![[0.0; 3]; 3],
        }),
        &mut buf,
    );
    buf[16..24].copy_from_slice(&4u64.to_le_bytes());
    assert!(matches!(decode_response(&buf), Err(WireError::BadLength { .. })));

    // count × stride overflow must not wrap around into "consistent"
    let mut buf = Vec::new();
    encode_request(&Request::Kick(Vec::new()), &mut buf);
    buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(decode_request(&buf), Err(WireError::BadLength { .. })));

    // the bulk frames' counts: a lie in either aux field, and every
    // overflow of count × stride (+ the fixed part), is a BadLength from
    // the owned decoder and from the views — before anything is sized
    // from the count
    let huge = [u64::MAX, u64::MAX / 24, u64::MAX / 32, (u64::MAX - 32) / 32 + 1, 1 << 60];
    for (frame, aux_offsets) in [
        (valid_request_frame(), &[16usize][..]),
        (step_frame(), &[16]),
        (field_frame(true), &[16, 24]),
        (field_frame(false), &[16, 24]),
        (stepped_frame(), &[16]),
    ] {
        for &off in aux_offsets {
            let honest = u64::from_le_bytes(frame[off..off + 8].try_into().unwrap());
            for lie in huge.into_iter().chain([honest + 1, honest.wrapping_sub(1)]) {
                let mut buf = frame.clone();
                buf[off..off + 8].copy_from_slice(&lie.to_le_bytes());
                let mut pos = Vec::new();
                let (views, sized) = view_errors(&buf);
                let mut errors = vec![
                    decode_request(&buf).err(),
                    decode_response(&buf).err(),
                    wire::decode_stepped_into(&buf, &mut pos).err(),
                ];
                errors.extend(views);
                assert!(errors.iter().all(Option::is_some), "aux at {off} = {lie}: {errors:?}");
                assert!(
                    errors.iter().flatten().any(|e| matches!(e, WireError::BadLength { .. })),
                    "aux at {off} = {lie}: {errors:?}"
                );
                let sized = sized + pos.capacity();
                assert!(sized <= 64, "a decoder sized a buffer from a refused count: {sized}");
            }
        }
    }
}

/// What the codec lets through, the serving host refuses with a typed
/// `Error` frame — a kick count other than 1 or 2, a `dv` of the wrong
/// length, target ranges outside the sets or reversed — and the worker
/// behind it is untouched and keeps serving.
#[test]
fn hosts_refuse_malformed_composites_with_a_typed_error() {
    let refused = |r: Response, what: &str| match r {
        Response::Error(e) => assert!(!e.contains("wire error"), "{what}: {e}"),
        other => panic!("{what}: {other:?}"),
    };
    let (addr, handle) = jc_amuse::spawn_tcp_worker("grav", || {
        GravityWorker::new(plummer_sphere(4, 1), Backend::Scalar)
    });
    let mut grav = SocketChannel::connect(addr, "grav").unwrap();
    let before = grav.call(Request::GetParticles);
    for (n, len) in [(0u32, 4usize), (3, 4), (u32::MAX, 4), (1, 3), (2, 5), (1, 0)] {
        let step = Request::Step { dv: vec![[0.5; 3]; len], n, t: 1.0 };
        refused(grav.call(step), &format!("step n={n} over {len} of 4 particles"));
        // the typed legs surface the same refusal
        grav.submit_step(&vec![[0.5; 3]; len], n, 1.0);
        refused(grav.collect_step_into(&mut ParticleData::default()), "typed step leg");
    }
    let after = grav.call(Request::GetParticles);
    assert_eq!(format!("{before:?}"), format!("{after:?}"), "a refused step applied nothing");
    drop(grav);
    handle.join().unwrap().unwrap();

    let (addr, handle) = jc_amuse::spawn_tcp_worker("fi", CouplingWorker::fi);
    let mut fi = SocketChannel::connect(addr, "fi").unwrap();
    let outside = [
        ((0, 4), (0, 5)),
        ((0, 3), (0, 6)),
        ((2, 1), (0, 5)),
        ((0, 3), (5, 4)),
        ((usize::MAX - 1, usize::MAX), (0, 5)),
        ((0, usize::MAX), (0, 5)),
    ];
    for (star_range, gas_range) in outside {
        let what = format!("field over {star_range:?}/{gas_range:?} of 3 stars, 5 gas");
        refused(fi.call(field_request(true, star_range, gas_range)), &what);
        refused(fi.call(field_request(false, star_range, gas_range)), &what);
    }
    for prime in [true, false] {
        match fi.call(field_request(prime, (1, 3), (0, 4))) {
            Response::Accelerations { acc, .. } => assert_eq!(acc.len(), 2 + 4),
            other => panic!("{other:?}"),
        }
    }
    drop(fi);
    handle.join().unwrap().unwrap();
}

/// The mass flag of a field frame must agree with its length: a priming
/// frame with the flag cleared, or a mass-free one with the flag set, is
/// a `BadLength` — never a frame read with the masses as positions or
/// past its end.
#[test]
fn a_mass_flag_that_disagrees_with_the_length_is_refused() {
    for mut buf in [field_frame(true), field_frame(false)] {
        let lie = u64::from_le_bytes(buf[16..24].try_into().unwrap()) ^ wire::FIELD_MASSES;
        buf[16..24].copy_from_slice(&lie.to_le_bytes());
        assert!(matches!(decode_request(&buf), Err(WireError::BadLength { .. })), "{lie:#x}");
        let (errors, sized) = view_errors(&buf);
        assert!(matches!(errors[2], Some(WireError::BadLength { .. })), "{errors:?}");
        assert_eq!(sized, 0, "nothing decoded");
    }
}

/// A v3 composite frame — the retired `ComputeField` (0x0F) and
/// `Stepped` (0x88) layouts, with masses inline — is answered cleanly:
/// the decoders name the opcode unknown instead of reading the v3 bytes
/// under the v4 layout, and a server answers a protocol-error frame and
/// keeps serving.
#[test]
fn a_v3_composite_frame_is_refused_not_misparsed() {
    // hand-built v3 frames: 3 stars and 5 gas as (pos, mass) per set,
    // and a 3-particle (mass, pos) step answer
    let v3 = |opcode: u8, aux0: u64, aux1: u64, payload_len: usize| {
        let mut f = Vec::new();
        f.extend_from_slice(&wire::MAGIC.to_le_bytes());
        f.extend_from_slice(&[3, opcode, 0, 0]);
        for word in [payload_len as u64, aux0, aux1] {
            f.extend_from_slice(&word.to_le_bytes());
        }
        f.resize(HEADER_LEN + payload_len, 0);
        f
    };
    let field = v3(0x0F, 3, 5, 32 + 32 * 8);
    let stepped = v3(0x88, 3, 9f64.to_bits(), 32 * 3);
    assert_eq!(decode_request(&field).unwrap_err(), WireError::UnknownOpcode(0x0F));
    assert_eq!(decode_response(&stepped).unwrap_err(), WireError::UnknownOpcode(0x88));
    assert!(view_errors(&field).0[2].is_some());
    assert!(wire::decode_stepped_into(&stepped, &mut Vec::new()).is_err());
    const { assert!(op::COMPUTE_FIELD != 0x0F && op::RESP_STEPPED != 0x88) };

    let (addr, handle) = jc_amuse::spawn_tcp_worker("fi", CouplingWorker::fi);
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&field).unwrap();
        let mut rbuf = Vec::new();
        wire::read_frame(&mut raw, &mut rbuf).expect("server should reply before closing");
        match wire::decode_response(&rbuf).unwrap() {
            Response::Error(e) => assert!(e.contains("unknown opcode 0x0f"), "{e}"),
            other => panic!("{other:?}"),
        }
    }
    let mut c = SocketChannel::connect(addr, "fi").unwrap();
    match c.call(field_request(true, (0, 3), (0, 5))) {
        Response::Accelerations { acc, .. } => assert_eq!(acc.len(), 3 + 5),
        other => panic!("{other:?}"),
    }
    drop(c);
    handle.join().unwrap().unwrap();
}

#[test]
fn unknown_stellar_event_kind_is_rejected() {
    let mut buf = Vec::new();
    encode_response(
        &Response::StellarUpdate {
            masses: vec![1.0],
            events: vec![jc_stellar::StellarEvent::WindMassLoss { star: 0, mass: 0.1 }],
        },
        &mut buf,
    );
    // event kind tag lives right after the 1-mass payload
    let kind_off = HEADER_LEN + 8;
    buf[kind_off..kind_off + 8].copy_from_slice(&7u64.to_le_bytes());
    assert_eq!(decode_response(&buf).unwrap_err(), WireError::BadEventKind(7));
}

#[test]
fn non_utf8_error_payload_is_rejected() {
    let mut buf = Vec::new();
    encode_response(&Response::Error("ab".into()), &mut buf);
    buf[HEADER_LEN] = 0xFF;
    buf[HEADER_LEN + 1] = 0xFE;
    assert_eq!(decode_response(&buf).unwrap_err(), WireError::Utf8);
}

proptest! {
    /// No byte soup of any length makes the decoders panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let mut buf = Vec::new();
        let _ = read_frame(&mut Cursor::new(&bytes), &mut buf);
    }

    /// Single-byte corruption of a valid frame either still decodes (the
    /// flipped byte was payload data) or errors cleanly — never panics.
    #[test]
    fn single_byte_corruption_never_panics(pos in 0usize..400, flip in 1u8..255) {
        for mut frame in [
            valid_request_frame(),
            step_frame(),
            field_frame(true),
            field_frame(false),
            stepped_frame(),
        ] {
            let pos = pos % frame.len();
            frame[pos] ^= flip;
            let _ = decode_request(&frame);
            let _ = decode_response(&frame);
            let _ = view_errors(&frame);
            let _ = wire::decode_stepped_into(&frame, &mut Vec::new());
        }
    }
}

/// A server fed hostile bytes must answer with a protocol-error frame
/// (or close), stay alive for the next connection, and never panic.
#[test]
fn server_rejects_hostile_frames_and_keeps_serving() {
    let (addr, handle) = jc_amuse::spawn_tcp_worker("grav", || {
        GravityWorker::new(plummer_sphere(4, 1), Backend::Scalar)
    });

    // 1: truncated header, then hang up
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xAA; 7]).unwrap();
        let _ = raw.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink); // server closes, maybe after an error frame
    }

    // 2: good magic/version but hostile length prefix — expect an Error
    // response frame back, then the connection drops
    {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        wire::encode_request(&Request::Ping, &mut frame);
        frame[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        raw.write_all(&frame).unwrap();
        let mut rbuf = Vec::new();
        wire::read_frame(&mut raw, &mut rbuf).expect("server should reply before closing");
        match wire::decode_response(&rbuf).unwrap() {
            Response::Error(e) => assert!(e.contains("protocol error"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    // 3: a well-behaved client is still served
    let mut c = SocketChannel::connect(addr, "grav").unwrap();
    assert!(matches!(c.call(Request::Ping), Response::Ok { .. }));
    drop(c); // sends Stop
    handle.join().unwrap().unwrap();
}

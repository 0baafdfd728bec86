//! Property tests for the wire codec: every `Request`/`Response` variant
//! must encode→decode bit-exactly — including NaN and ±inf floats, empty
//! payloads, and 10k-particle snapshots — and every encoded frame must be
//! exactly its modeled `wire_size()` long.

use jc_amuse::wire::{
    accelerations_frame, compute_field_frame, decode_request, decode_response, decode_stepped_into,
    encode_request, encode_response, particles_frame, step_frame, stepped_frame,
    view_compute_field, view_step,
};
use jc_amuse::worker::{ParticleData, Request, Response};
use jc_stellar::StellarEvent;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Any f64 bit pattern: NaNs (quiet, signalling, payloads), ±inf,
/// subnormals, -0.0 — the codec must not canonicalize any of them.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
        -1e9f64..1e9f64,
    ]
}

fn any_v3() -> impl Strategy<Value = [f64; 3]> {
    (any_f64(), any_f64(), any_f64()).prop_map(|(a, b, c)| [a, b, c])
}

fn any_request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stop),
        Just(Request::GetParticles),
        any_f64().prop_map(Request::EvolveTo),
        any_f64().prop_map(Request::EvolveStars),
        vec(any_f64(), 0..40).prop_map(Request::SetMasses),
        vec(any_v3(), 0..40).prop_map(Request::Kick),
        (vec(any_v3(), 0..20), vec((any_v3(), any_f64()), 0..20)).prop_map(|(targets, src)| {
            let (source_pos, source_mass) = src.into_iter().unzip();
            Request::ComputeKick { targets, source_pos, source_mass }
        }),
        (vec(any_v3(), 0..40), any::<u32>(), any_f64()).prop_map(|(dv, n, t)| Request::Step {
            dv,
            n,
            t
        }),
        (
            vec((any_v3(), any_f64()), 0..20),
            vec((any_v3(), any_f64()), 0..20),
            any::<bool>(),
            (any::<usize>(), any::<usize>()),
            (any::<usize>(), any::<usize>())
        )
            .prop_map(|(stars, gas, primes, star_range, gas_range)| {
                // any bounds travel: refusing ranges outside the sets is
                // the serving host's job, not the codec's
                let (star_pos, star_mass): (Vec<_>, Vec<_>) = stars.into_iter().unzip();
                let (gas_pos, gas_mass): (Vec<_>, Vec<_>) = gas.into_iter().unzip();
                let masses = primes.then_some((star_mass, gas_mass));
                Request::ComputeField { star_pos, gas_pos, masses, star_range, gas_range }
            }),
        (any_v3(), any_f64(), any_f64())
            .prop_map(|(center, radius, energy)| Request::InjectEnergy { center, radius, energy }),
        (any_v3(), any_f64(), any_f64()).prop_map(|(pos, mass, u)| Request::AddGas {
            pos,
            mass,
            u
        }),
    ]
    .boxed()
}

fn any_particles(max: usize) -> impl Strategy<Value = ParticleData> {
    (0..=max).prop_flat_map(|n| {
        (vec(any_f64(), n), vec(any_v3(), n), vec(any_v3(), n))
            .prop_map(|(mass, pos, vel)| ParticleData { mass, pos, vel })
    })
}

fn any_event() -> impl Strategy<Value = StellarEvent> {
    prop_oneof![
        (0usize..10_000, any_f64(), any_f64()).prop_map(|(star, ejected_mass, energy_foe)| {
            StellarEvent::Supernova { star, ejected_mass, energy_foe }
        }),
        (0usize..10_000, any_f64())
            .prop_map(|(star, mass)| StellarEvent::WindMassLoss { star, mass }),
    ]
}

fn any_response() -> BoxedStrategy<Response> {
    prop_oneof![
        any_f64().prop_map(|flops| Response::Ok { flops }),
        any_particles(30).prop_map(Response::Particles),
        (vec(any_v3(), 0..30), any_f64())
            .prop_map(|(acc, flops)| Response::Accelerations { acc, flops }),
        (vec(any_v3(), 0..30), any_f64()).prop_map(|(pos, flops)| Response::Stepped { pos, flops }),
        (vec(any_f64(), 0..30), vec(any_event(), 0..10))
            .prop_map(|(masses, events)| Response::StellarUpdate { masses, events }),
        Just(Response::Unsupported),
        vec(0u8..128, 0..60)
            .prop_map(|bytes| { Response::Error(String::from_utf8(bytes).expect("ascii")) }),
    ]
    .boxed()
}

// -- bit-exact structural equality (f64 compared through to_bits) ----------

fn f64_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn v3_eq(a: &[f64; 3], b: &[f64; 3]) -> bool {
    (0..3).all(|k| f64_eq(a[k], b[k]))
}

fn vf_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| f64_eq(*x, *y))
}

fn vv3_eq(a: &[[f64; 3]], b: &[[f64; 3]]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| v3_eq(x, y))
}

fn particles_eq(a: &ParticleData, b: &ParticleData) -> bool {
    vf_eq(&a.mass, &b.mass) && vv3_eq(&a.pos, &b.pos) && vv3_eq(&a.vel, &b.vel)
}

fn event_eq(a: &StellarEvent, b: &StellarEvent) -> bool {
    match (a, b) {
        (
            StellarEvent::Supernova { star: s1, ejected_mass: m1, energy_foe: e1 },
            StellarEvent::Supernova { star: s2, ejected_mass: m2, energy_foe: e2 },
        ) => s1 == s2 && f64_eq(*m1, *m2) && f64_eq(*e1, *e2),
        (
            StellarEvent::WindMassLoss { star: s1, mass: m1 },
            StellarEvent::WindMassLoss { star: s2, mass: m2 },
        ) => s1 == s2 && f64_eq(*m1, *m2),
        _ => false,
    }
}

fn request_eq(a: &Request, b: &Request) -> bool {
    match (a, b) {
        (Request::Ping, Request::Ping)
        | (Request::Stop, Request::Stop)
        | (Request::GetParticles, Request::GetParticles) => true,
        (Request::EvolveTo(x), Request::EvolveTo(y))
        | (Request::EvolveStars(x), Request::EvolveStars(y)) => f64_eq(*x, *y),
        (Request::SetMasses(x), Request::SetMasses(y)) => vf_eq(x, y),
        (Request::Kick(x), Request::Kick(y)) => vv3_eq(x, y),
        (
            Request::ComputeKick { targets: t1, source_pos: p1, source_mass: m1 },
            Request::ComputeKick { targets: t2, source_pos: p2, source_mass: m2 },
        ) => vv3_eq(t1, t2) && vv3_eq(p1, p2) && vf_eq(m1, m2),
        (Request::Step { dv: d1, n: n1, t: t1 }, Request::Step { dv: d2, n: n2, t: t2 }) => {
            vv3_eq(d1, d2) && n1 == n2 && f64_eq(*t1, *t2)
        }
        (
            Request::ComputeField {
                star_pos: sp1,
                gas_pos: gp1,
                masses: m1,
                star_range: sr1,
                gas_range: gr1,
            },
            Request::ComputeField {
                star_pos: sp2,
                gas_pos: gp2,
                masses: m2,
                star_range: sr2,
                gas_range: gr2,
            },
        ) => {
            let masses_eq = match (m1, m2) {
                (Some((s1, g1)), Some((s2, g2))) => vf_eq(s1, s2) && vf_eq(g1, g2),
                (None, None) => true,
                _ => false,
            };
            vv3_eq(sp1, sp2) && vv3_eq(gp1, gp2) && masses_eq && (sr1, gr1) == (sr2, gr2)
        }
        (
            Request::InjectEnergy { center: c1, radius: r1, energy: e1 },
            Request::InjectEnergy { center: c2, radius: r2, energy: e2 },
        ) => v3_eq(c1, c2) && f64_eq(*r1, *r2) && f64_eq(*e1, *e2),
        (
            Request::AddGas { pos: p1, mass: m1, u: u1 },
            Request::AddGas { pos: p2, mass: m2, u: u2 },
        ) => v3_eq(p1, p2) && f64_eq(*m1, *m2) && f64_eq(*u1, *u2),
        _ => false,
    }
}

/// `frame` copied into `store` at `offset` bytes past an 8-aligned
/// address: the copy, which a view reads in place only at offset 0.
fn placed<'s>(frame: &[u8], offset: usize, store: &'s mut Vec<u8>) -> &'s [u8] {
    store.clear();
    store.resize(frame.len() + 16, 0);
    let start = store.as_ptr().align_offset(8) + offset;
    store[start..start + frame.len()].copy_from_slice(frame);
    &store[start..start + frame.len()]
}

fn response_eq(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Ok { flops: x }, Response::Ok { flops: y }) => f64_eq(*x, *y),
        (Response::Particles(x), Response::Particles(y)) => particles_eq(x, y),
        (
            Response::Accelerations { acc: a1, flops: f1 },
            Response::Accelerations { acc: a2, flops: f2 },
        ) => vv3_eq(a1, a2) && f64_eq(*f1, *f2),
        (Response::Stepped { pos: p1, flops: f1 }, Response::Stepped { pos: p2, flops: f2 }) => {
            vv3_eq(p1, p2) && f64_eq(*f1, *f2)
        }
        (
            Response::StellarUpdate { masses: m1, events: e1 },
            Response::StellarUpdate { masses: m2, events: e2 },
        ) => {
            vf_eq(m1, m2) && e1.len() == e2.len() && e1.iter().zip(e2).all(|(x, y)| event_eq(x, y))
        }
        (Response::Unsupported, Response::Unsupported) => true,
        (Response::Error(x), Response::Error(y)) => x == y,
        _ => false,
    }
}

proptest! {
    #[test]
    fn request_round_trips_bit_exactly(req in any_request()) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        prop_assert_eq!(buf.len() as u64, req.wire_size());
        let back = decode_request(&buf).expect("valid frame must decode");
        prop_assert!(request_eq(&req, &back), "round trip changed {:?}", req);
    }

    #[test]
    fn response_round_trips_bit_exactly(resp in any_response()) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        prop_assert_eq!(buf.len() as u64, resp.wire_size());
        let back = decode_response(&buf).expect("valid frame must decode");
        prop_assert!(response_eq(&resp, &back), "round trip changed {:?}", resp);
    }

    /// The builders of the composite substep write the frames of the
    /// owned codec — into a buffer that held something else before, and
    /// as the parts a vectored write sends — and the server's views read
    /// them back alike in place at an 8-aligned address and through the
    /// scratch copy at +1 byte.
    #[test]
    fn borrowed_composite_codecs_agree_with_the_owned_ones(
        req in any_request(),
        stale in any_particles(30),
        flops in any_f64(),
    ) {
        let (mut owned, mut borrowed, mut store) = (Vec::new(), vec![0xAAu8; 7], Vec::new());
        encode_request(&req, &mut owned);
        match &req {
            Request::Step { dv, n, t } => {
                let frame = step_frame(dv, *n, *t);
                frame.encode(&mut borrowed);
                prop_assert!(owned == borrowed);
                #[cfg(target_endian = "little")]
                prop_assert!(frame.parts().concat() == owned);
                for offset in [0, 1] {
                    let mut scratch = stale.pos.clone();
                    let (dv2, n2, t2) = view_step(placed(&owned, offset, &mut store), &mut scratch)
                        .expect("valid frame");
                    prop_assert!(vv3_eq(dv, dv2) && *n == n2 && f64_eq(*t, t2), "at +{}", offset);
                }
            }
            Request::ComputeField { star_pos, gas_pos, masses, star_range, gas_range } => {
                let borrowed_masses = masses.as_ref().map(|(s, g)| (&s[..], &g[..]));
                let frame =
                    compute_field_frame(star_pos, gas_pos, borrowed_masses, *star_range, *gas_range);
                frame.encode(&mut borrowed);
                prop_assert!(owned == borrowed);
                #[cfg(target_endian = "little")]
                prop_assert!(frame.parts().concat() == owned);
                for offset in [0, 1] {
                    let mut scratch = [stale.pos.clone(), stale.vel.clone()];
                    let (mut star_mass, mut gas_mass) = (stale.mass.clone(), stale.mass.clone());
                    let f = view_compute_field(
                        placed(&owned, offset, &mut store),
                        &mut scratch,
                        (&mut star_mass, &mut gas_mass),
                    )
                    .expect("valid frame");
                    prop_assert_eq!((f.at.star_range, f.at.gas_range), (*star_range, *gas_range));
                    prop_assert_eq!(f.at.primes, masses.is_some());
                    prop_assert!(vv3_eq(star_pos, f.star_pos) && vv3_eq(gas_pos, f.gas_pos));
                    // a priming frame overwrites the mass columns, a
                    // mass-free one leaves them as they were
                    let (want_sm, want_gm) = borrowed_masses.unwrap_or((&stale.mass, &stale.mass));
                    prop_assert!(vf_eq(want_sm, &star_mass) && vf_eq(want_gm, &gas_mass));
                }
            }
            _ => {}
        }
        // the bulk answers, whatever the request was: each builder's
        // frame, encoded and in parts, is the owned reply's
        let replies = [
            (Response::Stepped { pos: stale.pos.clone(), flops }, stepped_frame(&stale.pos, flops)),
            (
                Response::Accelerations { acc: stale.vel.clone(), flops },
                accelerations_frame(&stale.vel, flops),
            ),
            (
                Response::Particles(stale.clone()),
                particles_frame(&stale.mass, &stale.pos, &stale.vel),
            ),
        ];
        for (resp, frame) in &replies {
            encode_response(resp, &mut owned);
            frame.encode(&mut borrowed);
            prop_assert!(owned == borrowed);
            #[cfg(target_endian = "little")]
            prop_assert!(frame.parts().concat() == owned);
        }
        encode_response(&replies[0].0, &mut owned);
        let mut into = stale.vel.clone();
        let got = decode_stepped_into(&owned, &mut into).expect("valid frame");
        prop_assert!(f64_eq(got, flops) && vv3_eq(&into, &stale.pos));
    }

    #[test]
    fn re_encoding_a_decoded_frame_is_identity(resp in any_response()) {
        let mut first = Vec::new();
        encode_response(&resp, &mut first);
        let decoded = decode_response(&first).unwrap();
        let mut second = Vec::new();
        encode_response(&decoded, &mut second);
        prop_assert!(first == second, "encode-decode-encode not idempotent");
    }
}

#[test]
fn ten_thousand_particle_snapshot_round_trips() {
    // the large-payload corner proptest's small sizes never reach,
    // seeded with adversarial floats at both ends
    let n = 10_000usize;
    let mut p = ParticleData {
        mass: (0..n).map(|i| i as f64 * 1e-4).collect(),
        pos: (0..n).map(|i| [i as f64, -(i as f64), 0.5 * i as f64]).collect(),
        vel: (0..n).map(|i| [1.0 / (i as f64 + 1.0); 3]).collect(),
    };
    p.mass[0] = f64::NAN;
    p.pos[0] = [f64::INFINITY, f64::NEG_INFINITY, -0.0];
    p.vel[n - 1] = [f64::from_bits(0x7FF0_0000_0000_0001), 5e-324, -5e-324]; // sNaN, subnormals
    let resp = Response::Particles(p);
    let mut buf = Vec::new();
    encode_response(&resp, &mut buf);
    assert_eq!(buf.len() as u64, resp.wire_size());
    assert_eq!(buf.len(), 32 + 56 * n);
    let back = decode_response(&buf).unwrap();
    assert!(response_eq(&resp, &back));
}

#[test]
fn empty_payload_variants_round_trip() {
    for req in [
        Request::SetMasses(Vec::new()),
        Request::Kick(Vec::new()),
        Request::ComputeKick {
            targets: Vec::new(),
            source_pos: Vec::new(),
            source_mass: Vec::new(),
        },
    ] {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(buf.len(), 32, "{req:?} must be header-only");
        assert!(request_eq(&req, &decode_request(&buf).unwrap()));
    }
    // the composites of empty sets still carry their scalars
    for (req, len) in [
        (Request::Step { dv: Vec::new(), n: 1, t: 0.5 }, 32 + 8),
        (
            Request::ComputeField {
                star_pos: Vec::new(),
                gas_pos: Vec::new(),
                masses: Some((Vec::new(), Vec::new())),
                star_range: (0, 0),
                gas_range: (0, 0),
            },
            32 + 32,
        ),
        (
            Request::ComputeField {
                star_pos: Vec::new(),
                gas_pos: Vec::new(),
                masses: None,
                star_range: (0, 0),
                gas_range: (0, 0),
            },
            32 + 32,
        ),
    ] {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(buf.len(), len, "{req:?}");
        assert!(request_eq(&req, &decode_request(&buf).unwrap()));
    }
    for resp in [
        Response::Particles(ParticleData::default()),
        Response::Accelerations { acc: Vec::new(), flops: 0.0 },
        Response::Stepped { pos: Vec::new(), flops: 0.0 },
        Response::StellarUpdate { masses: Vec::new(), events: Vec::new() },
        Response::Error(String::new()),
    ] {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(buf.len(), 32, "{resp:?} must be header-only");
        assert!(response_eq(&resp, &decode_response(&buf).unwrap()));
    }
}

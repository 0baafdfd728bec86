//! What a worker's *host* does with a request.
//!
//! A [`ModelWorker`] is one kernel behind six methods. Whatever hosts
//! it — [`crate::LocalChannel`] in the caller, [`crate::ThreadChannel`]'s
//! thread, [`crate::WorkerServer`] behind TCP, `jc_core`'s simulated
//! proxy — hands it requests through this module, and the two composite
//! requests of the bridge's substep are decomposed here, once, into
//! those six methods:
//!
//! * [`Request::Step`] = `n` × [`ModelWorker::kick_slice`], then
//!   `handle(EvolveTo)`, then the particle columns
//!   ([`ModelWorker::particles`] / [`ModelWorker::snapshot_into`]);
//! * [`Request::ComputeField`] = two
//!   [`ModelWorker::compute_kick_into`] evaluations, gas on stars first.
//!
//! So a worker never sees a composite, every kernel is called exactly
//! as the six separate round trips called it — same arguments, same
//! order, same f64 results — and a worker that declines a borrowed
//! method gets the owned request through `handle` instead, as the
//! channels have always done.

// `Err(Response)` throughout: the error *is* the frame the host answers
// with, moved once on the cold path — boxing it would buy nothing.
#![allow(clippy::result_large_err)]

use crate::worker::{ModelWorker, ParticleColumns, ParticleData, Request, Response};

/// Execute one request on `worker`: composites are decomposed, anything
/// else is the worker's own business.
pub fn serve(worker: &mut dyn ModelWorker, req: Request) -> Response {
    match req {
        Request::Step { dv, n, t } => {
            let flops = match step(worker, &dv, n, t) {
                Ok(flops) => flops,
                Err(resp) => return resp,
            };
            let mut p = ParticleData::default();
            match positions_into(worker, &mut p) {
                Ok(()) => Response::Stepped { mass: p.mass, pos: p.pos, flops },
                Err(resp) => resp,
            }
        }
        Request::ComputeField { star_pos, star_mass, gas_pos, gas_mass, star_range, gas_range } => {
            let (mut acc, mut tmp) = (Vec::new(), Vec::new());
            let (stars, gas) = ((&star_pos[..], &star_mass[..]), (&gas_pos[..], &gas_mass[..]));
            match field_into(worker, stars, gas, star_range, gas_range, &mut acc, &mut tmp) {
                Ok(flops) => Response::Accelerations { acc, flops },
                Err(resp) => resp,
            }
        }
        other => worker.handle(other),
    }
}

/// The mutating half of a [`Request::Step`]: `dv` added `n` times, one
/// addition per application, then the evolve to `t`. `Ok` carries the
/// summed flops; `Err` is what the worker answered instead of `Ok`, or
/// the refusal of an `n` outside {1, 2} (nothing was applied then).
// jc-lint: no-alloc
pub fn step(
    worker: &mut dyn ModelWorker,
    dv: &[[f64; 3]],
    n: u32,
    t: f64,
) -> Result<f64, Response> {
    if !(1..=2).contains(&n) {
        // jc-lint: allow(no-alloc): cold path — a malformed request
        return Err(Response::Error(format!("step applies its kick 1 or 2 times, not {n}")));
    }
    let mut flops = 0.0;
    for _ in 0..n {
        flops += match worker.kick_slice(dv) {
            Some(f) => f,
            // jc-lint: allow(no-alloc): cold path — the worker declined the borrowed leg
            None => match worker.handle(Request::Kick(dv.to_vec())) {
                Response::Ok { flops } => flops,
                other => return Err(other),
            },
        };
    }
    match worker.handle(Request::EvolveTo(t)) {
        Response::Ok { flops: f } => Ok(flops + f),
        other => Err(other),
    }
}

/// The worker's particle columns: lent in place when it implements
/// [`ModelWorker::particles`], through `scratch` otherwise. `Err` is
/// what the worker answered to `GetParticles` instead of particles.
// jc-lint: no-alloc
pub fn particles<'a>(
    worker: &'a mut dyn ModelWorker,
    scratch: &'a mut ParticleData,
) -> Result<ParticleColumns<'a>, Response> {
    if worker.particles().is_none() && !worker.snapshot_into(scratch) {
        match worker.handle(Request::GetParticles) {
            Response::Particles(p) => *scratch = p,
            other => return Err(other),
        }
    }
    Ok(worker.particles().unwrap_or((&scratch.mass, &scratch.pos, &scratch.vel)))
}

/// What a [`Request::Step`] answers with, copied into `out`: the
/// worker's masses and positions, `out.vel` left empty.
// jc-lint: no-alloc
pub fn positions_into(
    worker: &mut dyn ModelWorker,
    out: &mut ParticleData,
) -> Result<(), Response> {
    if let Some((mass, pos, _)) = worker.particles() {
        out.mass.clear();
        out.mass.extend_from_slice(mass);
        out.pos.clear();
        out.pos.extend_from_slice(pos);
    } else if !worker.snapshot_into(out) {
        match worker.handle(Request::GetParticles) {
            Response::Particles(p) => *out = p,
            other => return Err(other),
        }
    }
    out.vel.clear();
    Ok(())
}

/// Borrowed `(positions, masses)` of one particle set.
pub type FieldSet<'a> = (&'a [[f64; 3]], &'a [f64]);

/// [`Request::ComputeField`] on borrowed sets: the accelerations of
/// `stars[star_range]` due to all gas land in `out`, followed by those
/// of `gas[gas_range]` due to all stars (`tmp` stages the second
/// evaluation). `Ok` carries the summed flops; `Err` a typed refusal of
/// ragged sets or ranges outside them, or what the worker answered
/// instead of accelerations.
// jc-lint: no-alloc
pub fn field_into(
    worker: &mut dyn ModelWorker,
    stars: FieldSet<'_>,
    gas: FieldSet<'_>,
    star_range: (usize, usize),
    gas_range: (usize, usize),
    out: &mut Vec<[f64; 3]>,
    tmp: &mut Vec<[f64; 3]>,
) -> Result<f64, Response> {
    check_field(stars, gas, star_range, gas_range)?;
    // gas pulls on stars, then stars pull on gas
    let star_flops = kick_into(worker, &stars.0[star_range.0..star_range.1], gas, out)?;
    let gas_flops = kick_into(worker, &gas.0[gas_range.0..gas_range.1], stars, tmp)?;
    out.extend_from_slice(tmp);
    Ok(star_flops + gas_flops)
}

/// The typed refusal of a malformed [`Request::ComputeField`]: ragged
/// sets, or target ranges reversed or outside them.
pub(crate) fn check_field(
    stars: FieldSet<'_>,
    gas: FieldSet<'_>,
    star_range: (usize, usize),
    gas_range: (usize, usize),
) -> Result<(), Response> {
    let inside = |(a, b): (usize, usize), len: usize| a <= b && b <= len;
    if stars.0.len() != stars.1.len() || gas.0.len() != gas.1.len() {
        return Err(Response::Error("field set arrays length mismatch".into()));
    }
    if !inside(star_range, stars.0.len()) || !inside(gas_range, gas.0.len()) {
        return Err(Response::Error(format!(
            "field target ranges {star_range:?}/{gas_range:?} outside sets of {} stars, {} gas",
            stars.0.len(),
            gas.0.len()
        )));
    }
    Ok(())
}

/// One direction of the field: [`ModelWorker::compute_kick_into`], or
/// the owned [`Request::ComputeKick`] for a worker without it.
// jc-lint: no-alloc
fn kick_into(
    worker: &mut dyn ModelWorker,
    targets: &[[f64; 3]],
    source: FieldSet<'_>,
    out: &mut Vec<[f64; 3]>,
) -> Result<f64, Response> {
    if let Some(flops) = worker.compute_kick_into(targets, source.0, source.1, out) {
        return Ok(flops);
    }
    // cold path: the worker declined the borrowed leg
    match worker.handle(owned_compute_kick(targets, source.0, source.1)) {
        Response::Accelerations { acc, flops } => {
            *out = acc;
            Ok(flops)
        }
        other => Err(other),
    }
}

/// The owned [`Request::ComputeKick`] of three borrowed slices.
pub(crate) fn owned_compute_kick(
    targets: &[[f64; 3]],
    source_pos: &[[f64; 3]],
    source_mass: &[f64],
) -> Request {
    Request::ComputeKick {
        targets: targets.to_vec(),
        source_pos: source_pos.to_vec(),
        source_mass: source_mass.to_vec(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::worker::{CouplingWorker, GravityWorker};
    use jc_nbody::plummer::plummer_sphere;
    use jc_nbody::Backend;

    /// Forwards only the two required methods: a worker with no
    /// borrowed legs.
    pub(crate) struct HandleOnly<W>(pub(crate) W);

    impl<W: ModelWorker> ModelWorker for HandleOnly<W> {
        fn handle(&mut self, req: Request) -> Response {
            self.0.handle(req)
        }
        fn name(&self) -> String {
            self.0.name()
        }
    }

    fn get(w: &mut dyn ModelWorker) -> ParticleData {
        match w.handle(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn step_is_n_kicks_an_evolve_and_the_positions() {
        let grav = || GravityWorker::new(plummer_sphere(12, 3), Backend::CpuParallel);
        let dv: Vec<[f64; 3]> = (0..12).map(|i| [1e-3 * i as f64, -2e-4, 5e-4]).collect();
        for n in [1u32, 2] {
            // the six-method sequence, by hand
            let mut by_hand = grav();
            let mut flops = 0.0;
            for _ in 0..n {
                flops += by_hand.kick_slice(&dv).unwrap();
            }
            match by_hand.handle(Request::EvolveTo(0.03)) {
                Response::Ok { flops: f } => flops += f,
                other => panic!("{other:?}"),
            }
            let want = get(&mut by_hand);

            let with_legs: Box<dyn ModelWorker> = Box::new(grav());
            let without: Box<dyn ModelWorker> = Box::new(HandleOnly(grav()));
            for mut w in [with_legs, without] {
                match serve(w.as_mut(), Request::Step { dv: dv.clone(), n, t: 0.03 }) {
                    Response::Stepped { mass, pos, flops: f } => {
                        assert_eq!((mass, pos), (want.mass.clone(), want.pos.clone()), "n={n}");
                        assert_eq!(f.to_bits(), flops.to_bits(), "n={n}");
                    }
                    other => panic!("{other:?}"),
                }
                assert_eq!(get(w.as_mut()).vel, want.vel, "n={n}: kicks applied exactly n times");
            }
        }
    }

    #[test]
    fn a_refused_step_applies_nothing() {
        let mut w = GravityWorker::new(plummer_sphere(4, 3), Backend::Scalar);
        let before = get(&mut w);
        for (dv, n) in [(vec![[1.0; 3]; 4], 0), (vec![[1.0; 3]; 4], 3), (vec![[1.0; 3]; 3], 1)] {
            let r = serve(&mut w, Request::Step { dv, n, t: 0.5 });
            assert!(matches!(r, Response::Error(_)), "{r:?}");
            let after = get(&mut w);
            assert_eq!((after.pos, after.vel), (before.pos.clone(), before.vel.clone()));
        }
        // a stateless worker has nothing to step
        let r = serve(&mut CouplingWorker::fi(), Request::Step { dv: vec![], n: 1, t: 0.5 });
        assert!(matches!(r, Response::Unsupported), "{r:?}");
    }

    #[test]
    fn field_is_the_two_compute_kicks_over_the_ranges() {
        let (stars, gas) = (plummer_sphere(9, 1), plummer_sphere(14, 2));
        let kick = |targets: &[[f64; 3]], src: &jc_nbody::ParticleSet| {
            let mut acc = Vec::new();
            let f = CouplingWorker::fi()
                .compute_kick_into(targets, &src.pos, &src.mass, &mut acc)
                .unwrap();
            (acc, f)
        };
        let field = |w: &mut dyn ModelWorker, sr, gr| {
            serve(
                w,
                Request::ComputeField {
                    star_pos: stars.pos.clone(),
                    star_mass: stars.mass.clone(),
                    gas_pos: gas.pos.clone(),
                    gas_mass: gas.mass.clone(),
                    star_range: sr,
                    gas_range: gr,
                },
            )
        };
        for (sr, gr) in [((0, 9), (0, 14)), ((3, 7), (14, 14)), ((0, 0), (5, 6))] {
            let (mut want, fa) = kick(&stars.pos[sr.0..sr.1], &gas);
            let (acc_gas, fb) = kick(&gas.pos[gr.0..gr.1], &stars);
            want.extend(acc_gas);
            let with_legs: Box<dyn ModelWorker> = Box::new(CouplingWorker::fi());
            let without: Box<dyn ModelWorker> = Box::new(HandleOnly(CouplingWorker::fi()));
            for mut w in [with_legs, without] {
                match field(w.as_mut(), sr, gr) {
                    Response::Accelerations { acc, flops } => {
                        assert_eq!(acc, want, "{sr:?} {gr:?}");
                        assert_eq!(flops.to_bits(), (fa + fb).to_bits());
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
        // ranges outside the sets and reversed ranges are refused, typed
        let mut w = CouplingWorker::fi();
        for (sr, gr) in [((0, 10), (0, 14)), ((0, 9), (13, 15)), ((5, 4), (0, 14))] {
            let r = field(&mut w, sr, gr);
            assert!(matches!(r, Response::Error(_)), "{sr:?} {gr:?}: {r:?}");
        }
    }
}

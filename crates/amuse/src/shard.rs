//! Sharding: one logical model fanned out over a pool of workers.
//!
//! A [`ShardedChannel`] owns K inner [`Channel`]s and presents them to
//! the bridge as a single worker. Requests are decomposed per particle:
//!
//! | request | scatter | gather |
//! |---|---|---|
//! | `GetParticles` | broadcast | sub-snapshots concatenated in shard order |
//! | `Kick`, `SetMasses` | each shard its range's slice | `Ok`s, flops summed |
//! | `Step` | each shard its range's slice of `dv`; `n` and `t` broadcast | positions concatenated in shard order, flops summed |
//! | `ComputeField` | both sets' positions (and a priming request's masses, so every shard holds the whole epoch's) broadcast; each of the two target ranges cut by the `partition` rule, shard *i* gets the *i*-th piece of each | every shard's star piece in shard order, then every shard's gas piece; flops summed |
//! | `ComputeKick` | targets cut by the `partition` rule, sources broadcast | accelerations concatenated in shard order, flops summed |
//!
//! * **Range decomposition** — each shard owns one contiguous particle
//!   range (first shards get the ceil-sized chunk); the per-particle
//!   vectors of `Kick`, `SetMasses` and `Step` are cut along it.
//! * **Scatter–gather** — the coupling requests split their *targets*
//!   across shards and broadcast the sources; since the coupling
//!   solver evaluates each target independently against the sources
//!   alone, the gathered accelerations are bitwise identical to the
//!   unsharded answer.
//! * **Broadcast** — `Ping`/`EvolveTo`/`EvolveStars`/`InjectEnergy`/
//!   `Stop` go to every shard; flops are summed. A stellar update
//!   gathers the per-shard masses in order and remaps event star
//!   indices by each shard's base offset.
//! * **Routing** — [`Request::AddGas`] goes to the last shard (whose
//!   range grows by one).
//!
//! Exactness: sharding is bitwise-exact for any request whose semantics
//! decompose per particle — the coupling kick, SSE stellar evolution,
//! and all state ops (snapshot/kick/set-masses). Broadcasting
//! `EvolveTo` to a *tightly coupled* model (PhiGRAPE, Gadget) evolves
//! each shard's particles in isolation, and `InjectEnergy` normalizes
//! its deposit per shard — both are domain-decomposition
//! approximations, not bitwise reproductions; shard those models only
//! when that is understood.
//!
//! Every operation is one scatter (`submit*`: all shards addressed
//! before any reply is awaited) and one gather (`collect*`), so shards
//! that can overlap do — K socket workers, worker threads, or nested
//! pools run concurrently — and the one-shots are the [`Channel`]
//! defaults on top. The typed legs gather through per-shard scratch
//! buffers, keeping the bridge's hot loop allocation-free once warm.
//!
//! Failure semantics split into two tiers. *Transient* transport
//! faults (timeouts, dropped connections, torn frames — anything
//! [`crate::wire::WireError::is_transient`]) are absorbed **below**
//! this layer: each [`ReactorChannel`](crate::reactor::ReactorChannel)
//! stamps its requests with a sequence number and, under a
//! [`RetryPolicy`](crate::chaos::RetryPolicy), resends the identical
//! frame in place; the worker's last-applied-seq dedup cache makes the
//! resend idempotent, so even `Kick`/`SetMasses` retry safely without
//! double-applying. Any error that still *surfaces* from a shard is
//! therefore *fatal*: retries were exhausted (or disabled) and a
//! scatter is *not* atomic across shards — the shards already
//! addressed have applied their slices and the rest have not, so the
//! pool's state is inconsistent. The bridge treats a surfaced kick
//! failure as "this pool is failed" and recovers by *rewinding*:
//! restore a checkpoint ([`Request::LoadState`] re-scatters the full
//! authoritative state over whatever shards are alive), then replay
//! the iteration.
//!
//! Failover: a pool built [`ShardedChannel::with_supervisor`] survives
//! dead shards. [`ShardedChannel::heartbeat`] pings every shard (the
//! dead-peer detector); [`ShardedChannel::heal`] replaces each dead
//! shard with a supervisor respawn — or, when the supervisor cannot
//! deliver one, *excludes* it and re-partitions over the survivors.
//! Both paths rely on the bridge restoring a checkpoint afterwards:
//! a respawned worker starts from initial conditions and an exclusion
//! changes the range decomposition, so the pool's state is
//! authoritative again only after the next `LoadState`.

use crate::channel::{Channel, ChannelStats};
use crate::checkpoint::{scatter_states, ModelState};
use crate::worker::{ParticleData, Request, Response};
use jc_stellar::StellarEvent;

/// Contiguous `[start, end)` ranges for `total` particles over `k`
/// shards: the first shards get `ceil(total / k)` until the remainder
/// runs out (`k > 0`).
fn ranges(total: usize, k: usize) -> impl Iterator<Item = (usize, usize)> {
    let chunk = total.div_ceil(k);
    (0..k).map(move |i| ((i * chunk).min(total), ((i + 1) * chunk).min(total)))
}

/// The sizes of those ranges. (`jungle-worker --shard i/K` slices with
/// the same rule, so a worker pool launched from the CLI lines up with
/// the coupler's scatter.)
pub fn partition(total: usize, k: usize) -> Vec<usize> {
    assert!(k > 0, "at least one shard");
    ranges(total, k).map(|(a, b)| b - a).collect()
}

/// Respawns dead shard workers — the deploy layer's hook into the
/// pool's failover path. `jc_deploy::ProcessSupervisor` implements it
/// by relaunching `jungle-worker` processes; tests implement it with a
/// closure returning a fresh channel.
///
/// A respawned worker starts from its *initial* state; the caller (the
/// bridge's recovery loop) must re-establish the model state with a
/// [`Request::LoadState`] afterwards.
pub trait ShardSupervisor {
    /// Produce a replacement channel for the worker launched as slot
    /// `shard` (the shard's *original* index at pool assembly — stable
    /// across exclusions), or `None` when the worker cannot be
    /// respawned (the pool then excludes it).
    fn respawn(&mut self, shard: usize) -> Option<Box<dyn Channel>>;
}

impl<F> ShardSupervisor for F
where
    F: FnMut(usize) -> Option<Box<dyn Channel>>,
{
    fn respawn(&mut self, shard: usize) -> Option<Box<dyn Channel>> {
        self(shard)
    }
}

/// How to reassemble the outstanding fan-out.
enum Pending {
    /// All shards answered `Ok`; sum flops.
    Broadcast,
    /// [`Pending::Broadcast`] started by the typed kick leg (so it is
    /// gathered by the matching one).
    Kick,
    /// Concatenate particle snapshots in shard order.
    Concat,
    /// Concatenate stellar masses; remap event star indices.
    Stellar,
    /// Concatenate accelerations in shard order; sum flops.
    Gather,
    /// Concatenate the star pieces of the shards' accelerations
    /// (`field_stars` each), then the gas pieces; sum flops.
    Field,
    /// Concatenate stepped positions in shard order; sum flops.
    Step,
    /// Append checkpoint states in shard order.
    State,
    /// All shards answered `Ok` to a state scatter; on success adopt
    /// the new per-shard particle counts (`None` for pools whose
    /// elements are not snapshot particles — stellar, stateless).
    Load {
        /// The scatter's element counts per shard.
        counts: Option<Vec<usize>>,
    },
    /// Only this shard was addressed; `grow` bumps its range size on
    /// success (AddGas).
    Single {
        /// Shard index.
        shard: usize,
        /// Grow the shard's particle count on an `Ok` response.
        grow: bool,
    },
    /// The scatter was refused before any shard was addressed (length
    /// mismatch, ragged columns, empty pool); no fan-out is outstanding
    /// and the collect leg returns the stored error.
    Failed(Response),
}

/// One logical worker spread over K shard channels.
pub struct ShardedChannel {
    shards: Vec<Box<dyn Channel>>,
    /// Particles owned per shard (0 for stateless/non-particle workers).
    counts: Vec<usize>,
    pending: Option<Pending>,
    /// Per-shard snapshot scratch for the gathering fast path.
    snap_scratch: Vec<ParticleData>,
    /// Per-shard acceleration scratch for the gathering fast path.
    acc_scratch: Vec<Vec<[f64; 3]>>,
    /// Star targets each shard got in the outstanding field scatter.
    field_stars: Vec<usize>,
    /// Respawns dead shards during [`ShardedChannel::heal`].
    supervisor: Option<Box<dyn ShardSupervisor>>,
    /// Original launch slot of each current shard: exclusions remove
    /// entries, so pool index i's supervisor slot stays `slots[i]` and
    /// a respawn after an earlier exclusion still names the right
    /// launch recipe (and kills the right process).
    slots: Vec<usize>,
    /// Shards replaced by the supervisor so far.
    respawns: u64,
    /// Shards excluded (no replacement available) so far.
    exclusions: u64,
}

impl ShardedChannel {
    /// Assemble a sharded channel, probing each shard with one particle
    /// snapshot to learn its range size (counted in the shard's stats as
    /// one `GetParticles` call; shards that do not hold particles —
    /// coupling, stellar — report 0 and are exempt from range
    /// validation).
    pub fn new(shards: Vec<Box<dyn Channel>>) -> ShardedChannel {
        assert!(!shards.is_empty(), "at least one shard");
        let mut ch = ShardedChannel::with_counts(shards, Vec::new());
        let mut probe = ParticleData::default();
        for i in 0..ch.shards.len() {
            ch.counts[i] =
                if ch.shards[i].snapshot_into(&mut probe) { probe.mass.len() } else { 0 };
        }
        ch
    }

    /// Assemble with known per-shard particle counts (skips the probe;
    /// an empty `counts` means a stateless pool and is normalized to
    /// one zero per shard).
    pub fn with_counts(shards: Vec<Box<dyn Channel>>, counts: Vec<usize>) -> ShardedChannel {
        assert!(!shards.is_empty(), "at least one shard");
        assert!(counts.is_empty() || counts.len() == shards.len());
        let k = shards.len();
        let counts = if counts.is_empty() { vec![0; k] } else { counts };
        ShardedChannel {
            shards,
            counts,
            pending: None,
            slots: (0..k).collect(),
            snap_scratch: (0..k).map(|_| ParticleData::default()).collect(),
            acc_scratch: (0..k).map(|_| Vec::new()).collect(),
            field_stars: vec![0; k],
            supervisor: None,
            respawns: 0,
            exclusions: 0,
        }
    }

    /// Does every shard [`Channel::pipelines`]? Then a scatter's K round
    /// trips overlap: the workers compute — and their frames fly —
    /// concurrently instead of one at a time. In-process shards do
    /// their work inside the scatter itself and report `false`.
    pub fn pipelined(&self) -> bool {
        self.shards.iter().all(|s| s.pipelines())
    }

    /// Attach a supervisor that can respawn dead shards (see
    /// [`ShardedChannel::heal`]).
    pub fn with_supervisor(mut self, sup: Box<dyn ShardSupervisor>) -> ShardedChannel {
        self.supervisor = Some(sup);
        self
    }

    /// Shards replaced by the supervisor so far.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Shards excluded from the pool (dead, no replacement) so far.
    pub fn exclusions(&self) -> u64 {
        self.exclusions
    }

    /// Dead-peer detection: one heartbeat ([`Request::Ping`]) per shard,
    /// `true` per live shard. Safe only between calls (no outstanding
    /// fan-out).
    pub fn heartbeat(&mut self) -> Vec<bool> {
        assert!(self.pending.is_none(), "heartbeat during an outstanding call");
        self.shards
            .iter_mut()
            .map(|s| matches!(s.call(Request::Ping), Response::Ok { .. }))
            .collect()
    }

    /// Total particles across all shards (as last observed).
    pub fn total_particles(&self) -> usize {
        self.counts.iter().sum()
    }

    /// `[start, end)` of shard `i`'s particle range (`counts` always
    /// holds one entry per shard; a stateless pool is all zeros).
    fn range(&self, i: usize) -> (usize, usize) {
        let start: usize = self.counts[..i].iter().sum();
        (start, start + self.counts[i])
    }

    /// Every scatter starts here: one fan-out may be outstanding, and a
    /// pool whose shards were all excluded refuses it (parked as
    /// [`Pending::Failed`], `false`) instead of indexing into nothing.
    fn begin(&mut self) -> bool {
        assert!(self.pending.is_none(), "one outstanding call per channel");
        if self.shards.is_empty() {
            self.pending = Some(Pending::Failed(Response::Error(
                "sharded pool is empty: every shard was excluded".into(),
            )));
        }
        !self.shards.is_empty()
    }

    /// [`ShardedChannel::begin`] for a per-particle vector of `len`
    /// elements, which must match the known decomposition.
    fn begin_scatter(&mut self, len: usize) -> bool {
        if !self.begin() {
            return false;
        }
        let owned = self.total_particles();
        if len != owned {
            self.pending = Some(Pending::Failed(Response::Error(format!(
                "sharded scatter length mismatch: got {len}, shards own {owned}"
            ))));
        }
        len == owned
    }

    /// Gather `Ok`s, summing flops; the first other answer wins. Every
    /// shard is collected even after a failure: their pipelines must be
    /// left clean.
    fn gather_ok(&mut self, collect: fn(&mut dyn Channel) -> Response) -> Response {
        let mut flops = 0.0;
        let mut failure: Option<Response> = None;
        for s in &mut self.shards {
            match collect(s.as_mut()) {
                Response::Ok { flops: f } => flops += f,
                other => {
                    failure.get_or_insert(other);
                }
            }
        }
        failure.unwrap_or(Response::Ok { flops })
    }

    /// Gather the sub-snapshots (or, with `stepped`, the step answers:
    /// positions only, so `out.mass` is left as it is and `out.vel`
    /// empty) through the per-shard scratch and concatenate them into
    /// `out` in shard order, refreshing the observed layout. `Ok` sums
    /// the flops; every shard is collected even after a failure, and
    /// the first failure wins.
    fn gather_particles(&mut self, stepped: bool, out: &mut ParticleData) -> Response {
        let mut flops = 0.0;
        let mut failure: Option<Response> = None;
        for (s, scratch) in self.shards.iter_mut().zip(&mut self.snap_scratch) {
            let resp = if stepped {
                s.collect_step_into(scratch)
            } else if s.collect_snapshot_into(scratch) {
                Response::Ok { flops: 0.0 }
            } else {
                Response::Error("sharded snapshot: a shard did not answer with particles".into())
            };
            match resp {
                Response::Ok { flops: f } => flops += f,
                other => {
                    failure.get_or_insert(other);
                }
            }
        }
        if let Some(failure) = failure {
            return failure;
        }
        if !stepped {
            out.mass.clear();
        }
        out.pos.clear();
        out.vel.clear();
        for (count, scratch) in self.counts.iter_mut().zip(&self.snap_scratch) {
            *count = scratch.pos.len();
            if !stepped {
                out.mass.extend_from_slice(&scratch.mass);
                out.vel.extend_from_slice(&scratch.vel);
            }
            out.pos.extend_from_slice(&scratch.pos);
        }
        Response::Ok { flops }
    }

    /// Gather the per-shard accelerations through the scratch and
    /// concatenate them into `out`; flops are summed. A compute-kick
    /// gathers in shard order; a field (`split`) gathers every shard's
    /// star piece in shard order, then every shard's gas piece.
    fn gather_accelerations(&mut self, split: bool, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        let mut flops = 0.0;
        let mut ok = true;
        for (s, acc) in self.shards.iter_mut().zip(&mut self.acc_scratch) {
            match s.collect_accelerations_into(acc) {
                Some(f) => flops += f,
                None => ok = false,
            }
        }
        // a shard that answers fewer accelerations than its star piece
        // cannot be cut
        let cuts = self.acc_scratch.iter().zip(&self.field_stars);
        if !ok || (split && cuts.clone().any(|(acc, &stars)| acc.len() < stars)) {
            return None;
        }
        out.clear();
        if split {
            for (acc, &stars) in cuts.clone() {
                out.extend_from_slice(&acc[..stars]);
            }
            for (acc, &stars) in cuts {
                out.extend_from_slice(&acc[stars..]);
            }
        } else {
            for acc in &self.acc_scratch {
                out.extend_from_slice(acc);
            }
        }
        Some(flops)
    }

    fn collect_stellar(&mut self) -> Response {
        let mut masses = Vec::new();
        let mut events = Vec::new();
        for i in 0..self.shards.len() {
            match self.shards[i].collect() {
                Response::StellarUpdate { masses: m, events: ev } => {
                    let base = masses.len();
                    masses.extend_from_slice(&m);
                    events.extend(ev.into_iter().map(|e| match e {
                        StellarEvent::Supernova { star, ejected_mass, energy_foe } => {
                            StellarEvent::Supernova { star: star + base, ejected_mass, energy_foe }
                        }
                        StellarEvent::WindMassLoss { star, mass } => {
                            StellarEvent::WindMassLoss { star: star + base, mass }
                        }
                    }));
                }
                other => return self.drain_after_failure(i + 1, other),
            }
        }
        Response::StellarUpdate { masses, events }
    }

    fn collect_state(&mut self) -> Response {
        let mut acc: Option<ModelState> = None;
        for i in 0..self.shards.len() {
            match self.shards[i].collect() {
                Response::State(s) => match &mut acc {
                    None => acc = Some(s),
                    Some(a) => {
                        if let Err(e) = a.append(&s) {
                            return self.drain_after_failure(i + 1, Response::Error(e));
                        }
                    }
                },
                other => return self.drain_after_failure(i + 1, other),
            }
        }
        Response::State(acc.expect("at least one shard"))
    }

    /// A shard answered wrongly mid-gather: drain the remaining shards
    /// (their pipelines must be left clean) and surface the failure.
    fn drain_after_failure(&mut self, next: usize, failure: Response) -> Response {
        for s in &mut self.shards[next..] {
            let _ = s.collect();
        }
        failure
    }
}

impl Channel for ShardedChannel {
    fn submit(&mut self, req: Request) {
        // a request no shard could be sent is refused as its shards would
        if let Err(refusal) = crate::host::check_columns(&req) {
            assert!(self.pending.is_none(), "one outstanding call per channel");
            self.pending = Some(Pending::Failed(refusal));
            return;
        }
        let pending = match req {
            // the typed ops have one scatter each: their typed legs
            Request::GetParticles => return self.submit_snapshot(),
            Request::Kick(dv) => return self.submit_kick_slice(&dv),
            Request::Step { dv, n, t } => return self.submit_step(&dv, n, t),
            Request::ComputeField { star_pos, gas_pos, masses, star_range, gas_range } => {
                let prime = masses.is_some();
                let (star_mass, gas_mass) = masses.unwrap_or_default();
                let stars = ParticleData { mass: star_mass, pos: star_pos, vel: Vec::new() };
                let gas = ParticleData { mass: gas_mass, pos: gas_pos, vel: Vec::new() };
                return self.submit_field(&stars, &gas, prime, star_range, gas_range);
            }
            Request::ComputeKick { targets, source_pos, source_mass } => {
                if !self.begin() {
                    return;
                }
                // targets split by the `partition` rule, sources broadcast
                let cuts = ranges(targets.len(), self.shards.len());
                for (s, (a, b)) in self.shards.iter_mut().zip(cuts) {
                    s.submit_compute_kick(&targets[a..b], &source_pos, &source_mass);
                }
                Pending::Gather
            }
            Request::SetMasses(m) => {
                if !self.begin_scatter(m.len()) {
                    return;
                }
                for i in 0..self.shards.len() {
                    let (a, b) = self.range(i);
                    self.shards[i].submit(Request::SetMasses(m[a..b].to_vec()));
                }
                Pending::Broadcast
            }
            // every arm below addresses shards: an empty pool refuses first
            _ if !self.begin() => return,
            Request::LoadState(state) => {
                // canonical contiguous re-partition of the authoritative
                // state over however many shards are alive right now
                let particles =
                    matches!(state, ModelState::Gravity { .. } | ModelState::Hydro { .. });
                let (reqs, counts) = scatter_states(&state, self.shards.len());
                for (s, req) in self.shards.iter_mut().zip(reqs) {
                    s.submit(req);
                }
                Pending::Load { counts: particles.then_some(counts) }
            }
            Request::AddGas { pos, mass, u } => {
                let last = self.shards.len() - 1;
                self.shards[last].submit(Request::AddGas { pos, mass, u });
                Pending::Single { shard: last, grow: true }
            }
            broadcast => {
                for s in &mut self.shards {
                    s.submit(broadcast.clone());
                }
                match broadcast {
                    Request::EvolveStars(_) => Pending::Stellar,
                    Request::SaveState => Pending::State,
                    // Ping / EvolveTo / InjectEnergy / Stop
                    _ => Pending::Broadcast,
                }
            }
        };
        self.pending = Some(pending);
    }

    fn collect(&mut self) -> Response {
        match self.pending.take().expect("no outstanding call") {
            Pending::Broadcast => self.gather_ok(|s| s.collect()),
            Pending::Kick => self.gather_ok(|s| s.collect_kick()),
            Pending::Concat => {
                let mut all = ParticleData::default();
                match self.gather_particles(false, &mut all) {
                    Response::Ok { .. } => Response::Particles(all),
                    failure => failure,
                }
            }
            Pending::Step => {
                let mut all = ParticleData::default();
                match self.gather_particles(true, &mut all) {
                    Response::Ok { flops } => Response::Stepped { pos: all.pos, flops },
                    failure => failure,
                }
            }
            Pending::Stellar => self.collect_stellar(),
            split @ (Pending::Gather | Pending::Field) => {
                let mut acc = Vec::new();
                match self.gather_accelerations(matches!(split, Pending::Field), &mut acc) {
                    Some(flops) => Response::Accelerations { acc, flops },
                    None => Response::Error(
                        "sharded coupling: a shard did not answer with its accelerations".into(),
                    ),
                }
            }
            Pending::State => self.collect_state(),
            Pending::Load { counts } => {
                let resp = self.gather_ok(|s| s.collect());
                if let (Response::Ok { .. }, Some(c)) = (&resp, counts) {
                    self.counts = c;
                }
                resp
            }
            Pending::Single { shard, grow } => {
                let resp = self.shards[shard].collect();
                if grow && matches!(resp, Response::Ok { .. }) {
                    self.counts[shard] += 1;
                }
                resp
            }
            Pending::Failed(resp) => resp,
        }
    }

    fn stats(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    fn worker_name(&self) -> String {
        match self.shards.first() {
            Some(s) => format!("{}×{}", s.worker_name(), self.shards.len()),
            None => "(empty pool)".into(),
        }
    }

    /// Every member channel gets the same per-request budget — a pool
    /// is one logical worker, so one deadline governs all its shards.
    fn set_deadline(&mut self, deadline_ms: u64) {
        for s in &mut self.shards {
            s.set_deadline(deadline_ms);
        }
    }

    /// A sharded pool pipelines when every member does.
    fn pipelines(&self) -> bool {
        self.pipelined()
    }

    /// Failover: heartbeat every shard; replace each dead one with a
    /// supervisor respawn, or exclude it (re-partitioning over the
    /// survivors) when no replacement is available. Returns `false`
    /// only when the pool would be left empty. After a heal that
    /// changed the pool, the shard states are not authoritative until
    /// the next [`Request::LoadState`] (the bridge's restore).
    fn heal(&mut self) -> bool {
        // detection via the heartbeat; walk the dead shards back to
        // front so an exclusion's removal never shifts an index that is
        // still to be visited. Respawns are addressed by the shard's
        // *original launch slot* (`slots[i]`), which survives earlier
        // exclusions — the supervisor must never reap or relaunch a
        // different recipe than the one that died.
        let alive = self.heartbeat();
        for i in (0..alive.len()).rev() {
            if alive[i] {
                continue;
            }
            let slot = self.slots[i];
            let replacement = self.supervisor.as_mut().and_then(|s| s.respawn(slot));
            match replacement {
                Some(ch) => {
                    self.shards[i] = ch;
                    self.respawns += 1;
                }
                None => {
                    // exclude: drop the dead shard from every per-shard
                    // column; the next LoadState re-partitions
                    self.shards.remove(i);
                    self.counts.remove(i);
                    self.slots.remove(i);
                    self.snap_scratch.remove(i);
                    self.acc_scratch.remove(i);
                    self.field_stars.remove(i);
                    self.exclusions += 1;
                }
            }
        }
        !self.shards.is_empty()
    }

    fn submit_snapshot(&mut self) {
        if self.begin() {
            for s in &mut self.shards {
                s.submit_snapshot();
            }
            self.pending = Some(Pending::Concat);
        }
    }

    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        if matches!(self.pending, Some(Pending::Concat)) {
            self.pending = None;
            return matches!(self.gather_particles(false, out), Response::Ok { .. });
        }
        // a refused scatter (or a caller mixing legs): finish whatever it is
        let _ = self.collect();
        false
    }

    fn submit_step(&mut self, dv: &[[f64; 3]], n: u32, t: f64) {
        if self.begin_scatter(dv.len()) {
            for i in 0..self.shards.len() {
                let (a, b) = self.range(i);
                self.shards[i].submit_step(&dv[a..b], n, t);
            }
            self.pending = Some(Pending::Step);
        }
    }

    fn collect_step_into(&mut self, out: &mut ParticleData) -> Response {
        if matches!(self.pending, Some(Pending::Step)) {
            self.pending = None;
            return self.gather_particles(true, out);
        }
        // a refused scatter (or a caller mixing legs): finish whatever it is
        crate::channel::stepped_into(self.collect(), out)
    }

    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        if self.begin_scatter(dv.len()) {
            for i in 0..self.shards.len() {
                let (a, b) = self.range(i);
                self.shards[i].submit_kick_slice(&dv[a..b]);
            }
            self.pending = Some(Pending::Kick);
        }
    }

    fn submit_field(
        &mut self,
        stars: &ParticleData,
        gas: &ParticleData,
        prime: bool,
        star_range: (usize, usize),
        gas_range: (usize, usize),
    ) {
        if !self.begin() {
            return;
        }
        let sets = ((&stars.pos[..], &stars.mass[..]), (&gas.pos[..], &gas.mass[..]));
        let ragged = prime.then(|| crate::host::check_sets(sets.0, sets.1).err()).flatten();
        let refused = ragged.or_else(|| {
            crate::host::check_ranges(&stars.pos, &gas.pos, star_range, gas_range).err()
        });
        if let Some(refusal) = refused {
            self.pending = Some(Pending::Failed(refusal));
            return;
        }
        // both sets broadcast; shard i gets the i-th piece of each range
        let k = self.shards.len();
        let star_cuts = ranges(star_range.1 - star_range.0, k);
        let gas_cuts = ranges(gas_range.1 - gas_range.0, k);
        for (i, ((sa, sb), (ga, gb))) in star_cuts.zip(gas_cuts).enumerate() {
            self.field_stars[i] = sb - sa;
            self.shards[i].submit_field(
                stars,
                gas,
                prime,
                (star_range.0 + sa, star_range.0 + sb),
                (gas_range.0 + ga, gas_range.0 + gb),
            );
        }
        self.pending = Some(Pending::Field);
    }

    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        let split = match self.pending {
            Some(Pending::Gather) => false,
            Some(Pending::Field) => true,
            _ => {
                // a refused scatter (or a caller mixing legs): finish
                // whatever it is
                let _ = self.collect();
                return None;
            }
        };
        self.pending = None;
        self.gather_accelerations(split, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LocalChannel;
    use crate::worker::{CouplingWorker, GravityWorker, StellarWorker};
    use jc_nbody::plummer::plummer_sphere;
    use jc_nbody::Backend;

    fn local(w: impl crate::worker::ModelWorker + 'static) -> Box<dyn Channel> {
        Box::new(LocalChannel::new(Box::new(w)))
    }

    #[test]
    fn partition_covers_everything_contiguously() {
        assert_eq!(partition(10, 3), vec![4, 4, 2]);
        assert_eq!(partition(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(partition(0, 2), vec![0, 0]);
        assert_eq!(partition(7, 1), vec![7]);
    }

    #[test]
    fn sharded_coupling_matches_unsharded_bitwise() {
        let ics = plummer_sphere(97, 5);
        let mut single = CouplingWorker::fi();
        let reference = match crate::worker::ModelWorker::handle(
            &mut single,
            Request::ComputeKick {
                targets: ics.pos.clone(),
                source_pos: ics.pos.clone(),
                source_mass: ics.mass.clone(),
            },
        ) {
            Response::Accelerations { acc, .. } => acc,
            other => panic!("{other:?}"),
        };
        for k in 1..=3 {
            let shards: Vec<Box<dyn Channel>> =
                (0..k).map(|_| local(CouplingWorker::fi())).collect();
            let mut sharded = ShardedChannel::new(shards);
            let resp = sharded.call(Request::ComputeKick {
                targets: ics.pos.clone(),
                source_pos: ics.pos.clone(),
                source_mass: ics.mass.clone(),
            });
            match resp {
                Response::Accelerations { acc, .. } => {
                    assert_eq!(acc.len(), reference.len());
                    for (a, b) in acc.iter().zip(&reference) {
                        for j in 0..3 {
                            assert_eq!(a[j].to_bits(), b[j].to_bits(), "k={k}");
                        }
                    }
                }
                other => panic!("{other:?}"),
            }
        }
    }

    fn field_of(stars: &jc_nbody::ParticleSet, gas: &jc_nbody::ParticleSet) -> [ParticleData; 2] {
        [stars, gas].map(|p| ParticleData {
            mass: p.mass.clone(),
            pos: p.pos.clone(),
            vel: Vec::new(),
        })
    }

    #[test]
    fn sharded_field_matches_unsharded_bitwise() {
        // 23 stars, 31 gas: no pool below cuts either range evenly
        let [stars, gas] = field_of(&plummer_sphere(23, 5), &plummer_sphere(31, 6));
        // primed, then mass-free against the held masses: both answers
        let field = |ch: &mut dyn Channel, star_range, gas_range| {
            let mut acc = [vec![[9.0; 3]; 2], Vec::new()];
            let mut flops = [0.0; 2];
            for (i, prime) in [true, false].into_iter().enumerate() {
                ch.submit_field(&stars, &gas, prime, star_range, gas_range);
                flops[i] = ch.collect_accelerations_into(&mut acc[i]).expect("accelerations");
            }
            assert_eq!((&acc[0], flops[0]), (&acc[1], flops[1]), "held masses, same field");
            let [acc, _] = acc;
            (acc, flops[0])
        };
        let pool = |k: usize| -> Box<dyn Channel> {
            let shards = (0..k).map(|_| local(CouplingWorker::fi())).collect();
            Box::new(ShardedChannel::with_counts(shards, Vec::new()))
        };
        for (star_range, gas_range) in [((0, 23), (0, 31)), ((5, 22), (31, 31)), ((0, 0), (7, 8))] {
            let (want, want_flops) =
                field(local(CouplingWorker::fi()).as_mut(), star_range, gas_range);
            assert_eq!(want.len(), star_range.1 - star_range.0 + gas_range.1 - gas_range.0);
            for k in 1..=4 {
                let (acc, flops) = field(pool(k).as_mut(), star_range, gas_range);
                assert_eq!(acc, want, "k={k}: star slices in shard order, then gas slices");
                assert_eq!(flops, want_flops, "k={k}");
            }
            // a pool of pools cuts the cuts
            let mut nested = ShardedChannel::with_counts(vec![pool(2), pool(3)], Vec::new());
            assert_eq!(field(&mut nested, star_range, gas_range).0, want, "nested");
            // and the owned request takes the same scatter
            for masses in [Some((stars.mass.clone(), gas.mass.clone())), None] {
                let owned = nested.call(Request::ComputeField {
                    star_pos: stars.pos.clone(),
                    gas_pos: gas.pos.clone(),
                    masses,
                    star_range,
                    gas_range,
                });
                assert!(matches!(owned, Response::Accelerations { acc, .. } if acc == want));
            }
        }
        // reversed and outside ranges are refused, by the pool or its shards
        for (star_range, gas_range) in [((3, 2), (0, 31)), ((0, 24), (0, 31)), ((0, 23), (30, 32))]
        {
            let mut p = pool(2);
            for prime in [true, false] {
                p.submit_field(&stars, &gas, prime, star_range, gas_range);
                assert_eq!(p.collect_accelerations_into(&mut Vec::new()), None);
                assert!(matches!(p.call(Request::Ping), Response::Ok { .. }), "left drained");
            }
        }
    }

    #[test]
    fn sharded_step_matches_unsharded() {
        // a step over a sharded *coupled* model is the documented
        // domain-decomposition approximation; what must be exact is the
        // scatter of `dv`, the kick count, and the gather in shard order
        let ics = plummer_sphere(23, 8);
        let dv: Vec<[f64; 3]> = (0..23).map(|i| [i as f64 * 1e-4, -1e-5, 2e-5]).collect();
        let counts = partition(23, 3);
        let mut off = 0;
        let mut reference = ParticleData::default();
        let mut flops = 0.0;
        let shards: Vec<Box<dyn Channel>> = counts
            .iter()
            .map(|&c| {
                let sub = || GravityWorker::new(ics.slice(off, off + c), Backend::CpuParallel);
                // what each shard answers on its own
                let mut alone = local(sub());
                let mut part = ParticleData::default();
                alone.submit_step(&dv[off..off + c], 2, 0.01);
                match alone.collect_step_into(&mut part) {
                    Response::Ok { flops: f } => flops += f,
                    other => panic!("{other:?}"),
                }
                reference.pos.extend(part.pos);
                let shard = local(sub());
                off += c;
                shard
            })
            .collect();
        let mut sharded = ShardedChannel::new(shards);
        let held = vec![0.5; 23];
        let mut got = ParticleData { mass: held.clone(), vel: vec![[1.0; 3]], pos: Vec::new() };
        sharded.submit_step(&dv, 2, 0.01);
        let r = sharded.collect_step_into(&mut got);
        assert!(matches!(r, Response::Ok { flops: f } if f == flops), "{r:?}");
        assert_eq!(got.pos, reference.pos);
        assert!(got.vel.is_empty());
        assert_eq!(got.mass, held, "a step answers no masses: the held ones stay");
        // the owned request, on the already stepped pool: same shape
        match sharded.call(Request::Step { dv: dv.clone(), n: 1, t: 0.02 }) {
            Response::Stepped { pos, .. } => assert_eq!(pos.len(), 23),
            other => panic!("{other:?}"),
        }
        // a ragged `dv` is refused before any shard is addressed
        sharded.submit_step(&dv[..22], 1, 0.03);
        assert!(matches!(sharded.collect_step_into(&mut got), Response::Error(_)));
        assert!(matches!(sharded.call(Request::Step { dv, n: 3, t: 0.03 }), Response::Error(_)));
    }

    #[test]
    fn sharded_stellar_remaps_event_indices() {
        let masses: Vec<f64> = vec![1.0, 30.0, 2.0, 25.0, 0.8];
        let mut single = local(StellarWorker::new(masses.clone(), 0.02));
        let reference = single.call(Request::EvolveStars(8.0));
        let counts = partition(masses.len(), 2);
        let mut off = 0;
        let shards: Vec<Box<dyn Channel>> = counts
            .iter()
            .map(|&c| {
                let w = StellarWorker::new(masses[off..off + c].to_vec(), 0.02);
                off += c;
                local(w)
            })
            .collect();
        let mut sharded = ShardedChannel::with_counts(shards, vec![0; 2]);
        let resp = sharded.call(Request::EvolveStars(8.0));
        match (reference, resp) {
            (
                Response::StellarUpdate { masses: m1, events: e1 },
                Response::StellarUpdate { masses: m2, events: e2 },
            ) => {
                assert_eq!(m1, m2);
                assert_eq!(e1, e2);
                assert!(!e1.is_empty(), "sanity: the 30 and 25 MSun stars explode by 8 Myr");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sharded_state_ops_match_unsharded() {
        let ics = plummer_sphere(23, 8);
        let dv: Vec<[f64; 3]> = (0..23).map(|i| [i as f64 * 1e-4, -1e-5, 2e-5]).collect();

        let mut single = local(GravityWorker::new(ics.clone(), Backend::CpuParallel));
        let _ = single.call(Request::Kick(dv.clone()));
        let reference = match single.call(Request::GetParticles) {
            Response::Particles(p) => p,
            other => panic!("{other:?}"),
        };

        let counts = partition(23, 3);
        let mut off = 0;
        let shards: Vec<Box<dyn Channel>> = counts
            .iter()
            .map(|&c| {
                let sub = ics.slice(off, off + c);
                off += c;
                local(GravityWorker::new(sub, Backend::CpuParallel))
            })
            .collect();
        let mut sharded = ShardedChannel::new(shards);
        assert_eq!(sharded.total_particles(), 23);
        let r = sharded.call(Request::Kick(dv));
        assert!(matches!(r, Response::Ok { .. }), "{r:?}");
        match sharded.call(Request::GetParticles) {
            Response::Particles(p) => {
                assert_eq!(p.mass, reference.mass);
                assert_eq!(p.pos, reference.pos);
                assert_eq!(p.vel, reference.vel);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stateless_pool_survives_zero_length_scatter() {
        // empty `counts` (stateless pool) + a zero-length scatter must
        // not panic: every shard just gets an empty slice
        let shards: Vec<Box<dyn Channel>> = (0..2).map(|_| local(CouplingWorker::fi())).collect();
        let mut pool = ShardedChannel::with_counts(shards, Vec::new());
        assert_eq!(pool.total_particles(), 0);
        let r = pool.call(Request::Kick(Vec::new()));
        assert!(matches!(r, Response::Unsupported), "{r:?}");
        let r = pool.kick_slice(&[]);
        assert!(matches!(r, Response::Unsupported), "{r:?}");

        // a pool built with empty counts over particle-holding shards
        // discovers its layout from the first snapshot instead of
        // panicking on the counts refresh
        let shards: Vec<Box<dyn Channel>> = (0..2)
            .map(|i| local(GravityWorker::new(plummer_sphere(4, i), Backend::CpuParallel)))
            .collect();
        let mut pool = ShardedChannel::with_counts(shards, Vec::new());
        match pool.call(Request::GetParticles) {
            Response::Particles(p) => assert_eq!(p.mass.len(), 8),
            other => panic!("{other:?}"),
        }
        assert_eq!(pool.total_particles(), 8, "counts refreshed from the gather");
    }

    /// A coupling worker that answers only once its peer has *started*
    /// the same request: the typed fan-out completes iff both shards are
    /// addressed before either is collected. (A serial fan-out would
    /// leave shard 0 waiting for a peer that is never started.)
    struct Rendezvous {
        to_peer: std::sync::mpsc::Sender<()>,
        from_peer: std::sync::mpsc::Receiver<()>,
    }

    impl crate::worker::ModelWorker for Rendezvous {
        fn handle(&mut self, req: Request) -> Response {
            let Request::ComputeKick { targets, .. } = req else {
                return Response::Ok { flops: 0.0 };
            };
            let _ = self.to_peer.send(());
            match self.from_peer.recv_timeout(std::time::Duration::from_secs(5)) {
                Ok(()) => Response::Accelerations { acc: targets, flops: 1.0 },
                Err(_) => Response::Error("peer shard was never started".into()),
            }
        }

        fn name(&self) -> String {
            "rendezvous".into()
        }
    }

    /// The two halves of a [`Rendezvous`] pair.
    fn rendezvous_pair() -> [Rendezvous; 2] {
        let (to_b, from_a) = std::sync::mpsc::channel();
        let (to_a, from_b) = std::sync::mpsc::channel();
        [
            Rendezvous { to_peer: to_b, from_peer: from_b },
            Rendezvous { to_peer: to_a, from_peer: from_a },
        ]
    }

    /// Over worker threads, over sockets on private reactors and over
    /// one shared reactor: a socket pool completes only if every
    /// `submit*` starts its frame on the wire before returning, since
    /// nothing drives a private reactor until its own collect.
    #[test]
    fn shards_overlap_on_the_typed_legs() {
        use crate::channel::ThreadChannel;
        use crate::reactor::{Reactor, ReactorChannel};
        use crate::socket::{SocketChannel, WorkerFleet};
        let mut fleet = WorkerFleet::new();
        let reactor = Reactor::new_shared().unwrap();
        for transport in ["thread", "socket", "reactor"] {
            let mut channel = |name: &str, worker: Rendezvous| -> Box<dyn Channel> {
                match transport {
                    "thread" => Box::new(ThreadChannel::spawn(name, move || worker)),
                    "socket" => {
                        let addr = fleet.spawn(name, move || worker);
                        Box::new(SocketChannel::connect(addr, name).unwrap())
                    }
                    _ => {
                        let addr = fleet.spawn(name, move || worker);
                        Box::new(ReactorChannel::connect(&reactor, addr, name).unwrap())
                    }
                }
            };
            let [a, b] = rendezvous_pair();
            let shards = vec![channel("a", a), channel("b", b)];
            let mut pool = ShardedChannel::with_counts(shards, Vec::new());
            assert_eq!(pool.pipelined(), transport != "thread", "only TCP shards pipeline");
            let targets: Vec<[f64; 3]> = (0..5).map(|i| [i as f64, 0.0, 0.0]).collect();
            let mut acc = Vec::new();
            let flops = pool.compute_kick_into(&targets, &[], &[], &mut acc);
            assert_eq!(flops, Some(2.0), "{transport}: both shards must be in flight at once");
            assert_eq!(acc, targets, "{transport}: gathered in shard order");

            // a field likewise: each shard's host asks for both
            // directions, and each direction waits for the peer shard's
            let stars = ParticleData { mass: vec![1.0; 5], pos: targets.clone(), vel: Vec::new() };
            let gas =
                ParticleData { mass: vec![1.0; 3], pos: targets[..3].to_vec(), vel: Vec::new() };
            pool.submit_field(&stars, &gas, true, (0, 5), (0, 3));
            let flops = pool.collect_accelerations_into(&mut acc);
            assert_eq!(flops, Some(4.0), "{transport}: both shards must be in flight at once");
            let star_then_gas: Vec<_> = targets.iter().chain(&targets[..3]).copied().collect();
            assert_eq!(acc, star_then_gas, "{transport}: star pieces in shard order, then gas");
        }
        fleet.join_all().unwrap();
    }

    #[test]
    fn an_emptied_pool_fails_every_leg_typed() {
        // a fuse-less stand-in for a dead worker: never answers Ok
        struct Dead;
        impl crate::worker::ModelWorker for Dead {
            fn handle(&mut self, _req: Request) -> Response {
                Response::Error("dead".into())
            }
            fn name(&self) -> String {
                "dead".into()
            }
        }
        // no supervisor: heal can only exclude, and excludes them all
        let mut pool = ShardedChannel::with_counts(vec![local(Dead), local(Dead)], Vec::new());
        assert!(!pool.heal(), "nothing left to heal");
        assert_eq!((pool.shards.len(), pool.exclusions()), (0, 2));
        assert_eq!(pool.worker_name(), "(empty pool)");
        assert!(pool.heartbeat().is_empty());
        assert!(!pool.heal());

        let err = |r: Response| assert!(matches!(r, Response::Error(_)), "{r:?}");
        let requests = [
            Request::Ping,
            Request::GetParticles,
            Request::Kick(Vec::new()),
            Request::SetMasses(Vec::new()),
            Request::ComputeKick {
                targets: vec![[0.0; 3]],
                source_pos: Vec::new(),
                source_mass: Vec::new(),
            },
            Request::Step { dv: Vec::new(), n: 1, t: 1.0 },
            Request::ComputeField {
                star_pos: vec![[0.0; 3]],
                gas_pos: Vec::new(),
                masses: Some((vec![1.0], Vec::new())),
                star_range: (0, 1),
                gas_range: (0, 0),
            },
            Request::EvolveStars(1.0),
            Request::SaveState,
            Request::LoadState(ModelState::Stateless),
            Request::AddGas { pos: [0.0; 3], mass: 1.0, u: 1.0 },
        ];
        for req in requests {
            err(pool.call(req.clone()));
            pool.submit(req);
            err(pool.collect());
        }
        // the typed legs, one-shot and two-phase
        let mut snap = ParticleData::default();
        let mut acc = Vec::new();
        assert!(!pool.snapshot_into(&mut snap));
        err(pool.kick_slice(&[]));
        assert_eq!(pool.compute_kick_into(&[[0.0; 3]], &[], &[], &mut acc), None);
        pool.submit_snapshot();
        assert!(!pool.collect_snapshot_into(&mut snap));
        pool.submit_kick_slice(&[]);
        err(pool.collect_kick());
        pool.submit_compute_kick(&[[0.0; 3]], &[], &[]);
        assert_eq!(pool.collect_accelerations_into(&mut acc), None);
        pool.submit_step(&[], 1, 1.0);
        err(pool.collect_step_into(&mut snap));
        for prime in [true, false] {
            pool.submit_field(&snap, &snap, prime, (0, 0), (0, 0));
            assert_eq!(pool.collect_accelerations_into(&mut acc), None);
        }
        assert_eq!(pool.stats(), ChannelStats::default());
    }

    #[test]
    fn mismatched_scatter_is_an_error() {
        let shards: Vec<Box<dyn Channel>> = (0..2)
            .map(|i| local(GravityWorker::new(plummer_sphere(4, i), Backend::CpuParallel)))
            .collect();
        let mut sharded = ShardedChannel::new(shards);
        let r = sharded.kick_slice(&[[0.0; 3]; 3]);
        assert!(matches!(r, Response::Error(_)), "{r:?}");
    }
}

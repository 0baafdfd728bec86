//! Sharding: one logical model fanned out over a pool of workers.
//!
//! A [`ShardedChannel`] owns K inner [`Channel`]s and presents them to
//! the bridge as a single worker. Requests are decomposed per particle:
//!
//! * **Range decomposition** — each shard owns one contiguous particle
//!   range (first shards get the ceil-sized chunk). [`Request::Kick`]
//!   and [`Request::SetMasses`] scatter the matching slice to each
//!   shard; [`Request::GetParticles`] gathers the sub-snapshots back in
//!   shard order.
//! * **Scatter–gather** — [`Request::ComputeKick`] splits the *targets*
//!   across shards and broadcasts the sources; since the coupling
//!   solver evaluates each target independently against a tree built
//!   from the sources alone, the gathered accelerations are bitwise
//!   identical to the unsharded answer.
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
//! The asynchronous `submit`/`collect` path fans out to every shard
//! before collecting, so shards genuinely overlap (K socket workers run
//! concurrently). The borrowing fast paths instead run shard-by-shard
//! against per-shard scratch buffers, keeping the bridge's hot loop
//! allocation-free once warm.
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

/// Contiguous range sizes for `total` particles over `k` shards: the
/// first shards get `ceil(total / k)` until the remainder runs out.
/// (`jungle-worker --shard i/K` slices with the same rule, so a worker
/// pool launched from the CLI lines up with the coupler's scatter.)
pub fn partition(total: usize, k: usize) -> Vec<usize> {
    assert!(k > 0, "at least one shard");
    let chunk = total.div_ceil(k);
    let mut counts = Vec::with_capacity(k);
    let mut left = total;
    for _ in 0..k {
        let c = chunk.min(left);
        counts.push(c);
        left -= c;
    }
    counts
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
    /// Concatenate particle snapshots in shard order.
    Concat,
    /// Concatenate stellar masses; remap event star indices.
    Stellar,
    /// Concatenate accelerations in shard order; sum flops.
    Gather,
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
    /// Scatter validation failed before any shard was addressed; no
    /// fan-out is outstanding and `collect` returns the stored error.
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
    /// Per-shard acceleration scratch for the compute-kick fast path.
    acc_scratch: Vec<Vec<[f64; 3]>>,
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
            supervisor: None,
            respawns: 0,
            exclusions: 0,
        }
    }

    /// True when the state-op fast paths fan out in two phases (all
    /// shards submitted before any collect) so the K workers compute —
    /// and their frames fly — concurrently instead of one at a time:
    /// exactly when every shard [`Channel::pipelines`]. In-process
    /// shards do not, and are called serially.
    pub fn pipelined(&self) -> bool {
        self.shards.iter().all(|s| s.pipelines())
    }

    /// Attach a supervisor that can respawn dead shards (see
    /// [`ShardedChannel::heal`]).
    pub fn with_supervisor(mut self, sup: Box<dyn ShardSupervisor>) -> ShardedChannel {
        self.supervisor = Some(sup);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Scatter a per-particle vector into per-shard slices, submitting
    /// `make(slice)` to each shard. Errors if the length disagrees with
    /// the known decomposition.
    fn scatter_submit<T: Clone>(
        &mut self,
        data: &[T],
        make: impl Fn(Vec<T>) -> Request,
    ) -> Result<(), Box<Response>> {
        if data.len() != self.total_particles() {
            return Err(Box::new(Response::Error(format!(
                "sharded scatter length mismatch: got {}, shards own {}",
                data.len(),
                self.total_particles()
            ))));
        }
        for i in 0..self.shards.len() {
            let (a, b) = self.range(i);
            self.shards[i].submit(make(data[a..b].to_vec()));
        }
        Ok(())
    }

    fn collect_broadcast(&mut self) -> Response {
        let mut flops = 0.0;
        let mut failure: Option<Response> = None;
        for s in &mut self.shards {
            match s.collect() {
                Response::Ok { flops: f } => flops += f,
                other => {
                    if failure.is_none() {
                        failure = Some(other);
                    }
                }
            }
        }
        failure.unwrap_or(Response::Ok { flops })
    }

    fn collect_concat(&mut self) -> Response {
        let mut all = ParticleData::default();
        for i in 0..self.shards.len() {
            match self.shards[i].collect() {
                Response::Particles(p) => {
                    self.counts[i] = p.mass.len(); // refresh the observed layout
                    all.mass.extend_from_slice(&p.mass);
                    all.pos.extend_from_slice(&p.pos);
                    all.vel.extend_from_slice(&p.vel);
                }
                other => return self.drain_after_failure(i + 1, other),
            }
        }
        Response::Particles(all)
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

    fn collect_gather(&mut self) -> Response {
        let mut acc = Vec::new();
        let mut flops = 0.0;
        for i in 0..self.shards.len() {
            match self.shards[i].collect() {
                Response::Accelerations { acc: a, flops: f } => {
                    acc.extend_from_slice(&a);
                    flops += f;
                }
                other => return self.drain_after_failure(i + 1, other),
            }
        }
        Response::Accelerations { acc, flops }
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

    fn collect_load(&mut self, counts: Option<Vec<usize>>) -> Response {
        let resp = self.collect_broadcast();
        if matches!(resp, Response::Ok { .. }) {
            if let Some(c) = counts {
                self.counts = c;
            }
        }
        resp
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
    fn call(&mut self, req: Request) -> Response {
        self.submit(req);
        self.collect()
    }

    fn submit(&mut self, req: Request) {
        assert!(self.pending.is_none(), "one outstanding call per channel");
        let pending = match req {
            Request::GetParticles => {
                for s in &mut self.shards {
                    s.submit(Request::GetParticles);
                }
                Pending::Concat
            }
            Request::Kick(dv) => match self.scatter_submit(&dv, Request::Kick) {
                Ok(()) => Pending::Broadcast,
                Err(resp) => Pending::Failed(*resp),
            },
            Request::SetMasses(m) => match self.scatter_submit(&m, Request::SetMasses) {
                Ok(()) => Pending::Broadcast,
                Err(resp) => Pending::Failed(*resp),
            },
            Request::ComputeKick { targets, source_pos, source_mass } => {
                let counts = partition(targets.len(), self.shards.len());
                let mut off = 0usize;
                for (i, c) in counts.iter().enumerate() {
                    self.shards[i].submit(Request::ComputeKick {
                        targets: targets[off..off + c].to_vec(),
                        source_pos: source_pos.clone(),
                        source_mass: source_mass.clone(),
                    });
                    off += c;
                }
                Pending::Gather
            }
            Request::EvolveStars(t) => {
                for s in &mut self.shards {
                    s.submit(Request::EvolveStars(t));
                }
                Pending::Stellar
            }
            Request::SaveState => {
                for s in &mut self.shards {
                    s.submit(Request::SaveState);
                }
                Pending::State
            }
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
            other => {
                // Ping / EvolveTo / InjectEnergy / Stop: plain broadcast
                for s in &mut self.shards {
                    s.submit(other.clone());
                }
                Pending::Broadcast
            }
        };
        self.pending = Some(pending);
    }

    fn collect(&mut self) -> Response {
        match self.pending.take().expect("no outstanding call") {
            Pending::Broadcast => self.collect_broadcast(),
            Pending::Concat => self.collect_concat(),
            Pending::Stellar => self.collect_stellar(),
            Pending::Gather => self.collect_gather(),
            Pending::State => self.collect_state(),
            Pending::Load { counts } => self.collect_load(counts),
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
        format!("{}×{}", self.shards[0].worker_name(), self.shards.len())
    }

    /// Every member channel gets the same per-request budget — a pool
    /// is one logical worker, so one deadline governs all its shards.
    fn set_deadline(&mut self, deadline_ms: u64) {
        for s in &mut self.shards {
            s.set_deadline(deadline_ms);
        }
    }

    /// A sharded pool pipelines when every member does, letting an
    /// outer composition — nested pools, the bridge — overlap this pool
    /// with its siblings.
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
                    self.exclusions += 1;
                }
            }
        }
        !self.shards.is_empty()
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        out.mass.clear();
        out.pos.clear();
        out.vel.clear();
        if self.pipelined() {
            // Phase one: every shard has the request on the wire before
            // any reply is awaited, so the K workers encode and send
            // their snapshots concurrently.
            for s in &mut self.shards {
                s.submit_snapshot();
            }
            let mut ok = true;
            for i in 0..self.shards.len() {
                // Even after a failure every remaining collect runs:
                // the shards' pipelines must be left clean.
                if !self.shards[i].collect_snapshot_into(&mut self.snap_scratch[i]) {
                    ok = false;
                }
            }
            if !ok {
                return false;
            }
            for i in 0..self.shards.len() {
                let scratch = &self.snap_scratch[i];
                self.counts[i] = scratch.mass.len();
                out.mass.extend_from_slice(&scratch.mass);
                out.pos.extend_from_slice(&scratch.pos);
                out.vel.extend_from_slice(&scratch.vel);
            }
            return true;
        }
        for i in 0..self.shards.len() {
            let scratch = &mut self.snap_scratch[i];
            if !self.shards[i].snapshot_into(scratch) {
                return false;
            }
            self.counts[i] = scratch.mass.len();
            out.mass.extend_from_slice(&scratch.mass);
            out.pos.extend_from_slice(&scratch.pos);
            out.vel.extend_from_slice(&scratch.vel);
        }
        true
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Response {
        if dv.len() != self.total_particles() {
            return Response::Error(format!(
                "sharded kick length mismatch: got {}, shards own {}",
                dv.len(),
                self.total_particles()
            ));
        }
        let mut flops = 0.0;
        if self.pipelined() {
            for i in 0..self.shards.len() {
                let (a, b) = self.range(i);
                self.shards[i].submit_kick_slice(&dv[a..b]);
            }
            let mut failure: Option<Response> = None;
            for s in &mut self.shards {
                match s.collect_kick() {
                    Response::Ok { flops: f } => flops += f,
                    other => {
                        if failure.is_none() {
                            failure = Some(other);
                        }
                    }
                }
            }
            return failure.unwrap_or(Response::Ok { flops });
        }
        for i in 0..self.shards.len() {
            let (a, b) = self.range(i);
            match self.shards[i].kick_slice(&dv[a..b]) {
                Response::Ok { flops: f } => flops += f,
                other => return other,
            }
        }
        Response::Ok { flops }
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        let counts = partition(targets.len(), self.shards.len());
        let mut flops = 0.0;
        if self.pipelined() {
            let mut off = 0usize;
            for (i, c) in counts.iter().enumerate() {
                self.shards[i].submit_compute_kick(&targets[off..off + c], source_pos, source_mass);
                off += c;
            }
            let mut ok = true;
            for i in 0..self.shards.len() {
                match self.shards[i].collect_accelerations_into(&mut self.acc_scratch[i]) {
                    Some(f) => flops += f,
                    None => ok = false,
                }
            }
            if !ok {
                return None;
            }
        } else {
            let mut off = 0usize;
            for (i, c) in counts.iter().enumerate() {
                let acc = &mut self.acc_scratch[i];
                flops += self.shards[i].compute_kick_into(
                    &targets[off..off + c],
                    source_pos,
                    source_mass,
                    acc,
                )?;
                off += c;
            }
        }
        out.clear();
        for acc in &self.acc_scratch {
            out.extend_from_slice(acc);
        }
        Some(flops)
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

        let mut single = local(GravityWorker::new(ics.clone(), Backend::Scalar));
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
                local(GravityWorker::new(sub, Backend::Scalar))
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
            .map(|i| local(GravityWorker::new(plummer_sphere(4, i), Backend::Scalar)))
            .collect();
        let mut pool = ShardedChannel::with_counts(shards, Vec::new());
        match pool.call(Request::GetParticles) {
            Response::Particles(p) => assert_eq!(p.mass.len(), 8),
            other => panic!("{other:?}"),
        }
        assert_eq!(pool.total_particles(), 8, "counts refreshed from the gather");
    }

    #[test]
    fn mismatched_scatter_is_an_error() {
        let shards: Vec<Box<dyn Channel>> = (0..2)
            .map(|i| local(GravityWorker::new(plummer_sphere(4, i), Backend::Scalar)))
            .collect();
        let mut sharded = ShardedChannel::new(shards);
        let r = sharded.kick_slice(&[[0.0; 3]; 3]);
        assert!(matches!(r, Response::Error(_)), "{r:?}");
    }
}

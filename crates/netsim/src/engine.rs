//! The discrete-event engine: event queue, actor dispatch, message
//! transfer, failure injection.

use crate::actor::{Actor, ActorId, EngineNotice, Msg};
use crate::compute::{kernel_time, Device};
use crate::metrics::{Metrics, TrafficClass};
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed; every run with the same seed and inputs is identical.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig { seed: 42 }
    }
}

enum EventKind {
    Deliver { to: ActorId, msg: Msg },
    Crash { host: HostId },
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Everything the engine owns *except* the actor objects themselves, so an
/// actor can be mutably borrowed while its `Ctx` mutates the rest.
struct Inner {
    topo: Topology,
    clock: SimTime,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    metrics: Metrics,
    rng: StdRng,
    actor_host: Vec<HostId>,
    actor_alive: Vec<bool>,
    host_down: Vec<bool>,
    pending_actors: Vec<(ActorId, HostId, Box<dyn Actor>)>,
    link_busy_until: HashMap<crate::topology::LinkId, SimTime>,
}

impl Inner {
    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }

    /// Compute delivery time and account traffic for a message of `bytes`
    /// from the host of `from` to the host of `to`.
    fn transfer(
        &mut self,
        from_host: HostId,
        to_host: HostId,
        bytes: u64,
        class: TrafficClass,
    ) -> SimDuration {
        let now = self.clock;
        if from_host == to_host {
            let lat = self.topo.loopback_latency;
            let bw = self.topo.loopback_gbps * 1e9 / 8.0; // bytes/s
            return lat + SimDuration::from_secs_f64(bytes as f64 / bw);
        }
        let sa = self.topo.host(from_host).site;
        let sb = self.topo.host(to_host).site;
        let route = self
            .topo
            .route(sa, sb)
            .expect("transfer over unreachable route; callers must check connectivity");
        let mut latency = SimDuration::ZERO;
        let mut bottleneck_gbps = f64::INFINITY;
        let mut queue_delay = SimDuration::ZERO;
        if route.is_empty() {
            latency = self.topo.intra_site_latency(sa);
            bottleneck_gbps = self.topo.intra_site_gbps(sa);
        } else {
            for l in &route {
                let spec = self.topo.link(*l).clone();
                latency += spec.latency;
                bottleneck_gbps = bottleneck_gbps.min(spec.bandwidth_gbps);
                self.metrics.record_link(*l, class, bytes);
                // serialization: the link is busy for our bytes after any
                // already queued transfer finishes
                let busy = self.link_busy_until.entry(*l).or_insert(now);
                if *busy > now {
                    queue_delay = queue_delay.max(*busy - now);
                }
            }
        }
        let serialize = SimDuration::from_secs_f64(bytes as f64 / (bottleneck_gbps * 1e9 / 8.0));
        // update busy horizons
        for l in &route {
            let spec_bw = self.topo.link(*l).bandwidth_gbps;
            let occupied = SimDuration::from_secs_f64(bytes as f64 / (spec_bw * 1e9 / 8.0));
            let start = now + queue_delay;
            let entry = self.link_busy_until.entry(*l).or_insert(now);
            *entry = start + occupied;
        }
        queue_delay + latency + serialize
    }
}

/// The simulator: topology + event queue + actors.
pub struct Sim {
    inner: Inner,
    actors: Vec<Option<Box<dyn Actor>>>,
}

impl Sim {
    /// Create a simulator over a topology.
    pub fn new(topo: Topology, cfg: SimConfig) -> Sim {
        let host_down = vec![false; topo.host_count()];
        Sim {
            inner: Inner {
                topo,
                clock: SimTime::ZERO,
                queue: BinaryHeap::new(),
                seq: 0,
                metrics: Metrics::default(),
                rng: StdRng::seed_from_u64(cfg.seed),
                actor_host: Vec::new(),
                actor_alive: Vec::new(),
                host_down,
                pending_actors: Vec::new(),
                link_busy_until: HashMap::new(),
            },
            actors: Vec::new(),
        }
    }

    /// Install an actor on a host; runs its `on_start` immediately.
    pub fn add_actor(&mut self, host: HostId, actor: Box<dyn Actor>) -> ActorId {
        let id = self.install(host, actor);
        self.start_actor(id);
        self.install_pending();
        id
    }

    fn install(&mut self, host: HostId, actor: Box<dyn Actor>) -> ActorId {
        assert!((host.0 as usize) < self.inner.host_down.len(), "unknown host");
        let id = ActorId(self.actors.len() as u32);
        self.inner.actor_host.push(host);
        self.inner.actor_alive.push(true);
        self.actors.push(Some(actor));
        id
    }

    fn start_actor(&mut self, id: ActorId) {
        let mut a = self.actors[id.0 as usize].take().expect("actor busy");
        {
            let mut ctx = Ctx { inner: &mut self.inner, self_id: id };
            a.on_start(&mut ctx);
        }
        self.actors[id.0 as usize] = Some(a);
    }

    fn install_pending(&mut self) {
        while !self.inner.pending_actors.is_empty() {
            let pend = std::mem::take(&mut self.inner.pending_actors);
            for (id, host, actor) in pend {
                debug_assert_eq!(id.0 as usize, self.actors.len());
                let real = self.install(host, actor);
                debug_assert_eq!(real, id);
                self.start_actor(id);
            }
        }
    }

    /// Schedule an initial message to an actor.
    pub fn post(&mut self, to: ActorId, payload: impl Any, after: SimDuration) {
        let time = self.inner.clock + after;
        self.inner.push_event(time, EventKind::Deliver { to, msg: Msg::new(None, payload) });
    }

    /// Schedule a host crash at an absolute time.
    pub fn crash_host_at(&mut self, host: HostId, at: SimTime) {
        self.inner.push_event(at, EventKind::Crash { host });
    }

    /// Restore a host immediately (failure-recovery injection).
    pub fn restore_host_now(&mut self, host: HostId) {
        self.restore(host);
    }

    /// Is a host currently down?
    pub fn host_is_down(&self, host: HostId) -> bool {
        self.inner.host_down[host.0 as usize]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock
    }

    /// Topology access.
    pub fn topology(&mut self) -> &mut Topology {
        &mut self.inner.topo
    }

    /// Metrics access.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Split borrow for the monitoring views: mutable topology (routing
    /// queries mutate the route cache) plus shared metrics.
    pub fn monitor_parts(&mut self) -> (&mut Topology, &Metrics) {
        (&mut self.inner.topo, &self.inner.metrics)
    }

    /// Is the queue empty?
    pub fn is_idle(&self) -> bool {
        self.inner.queue.is_empty()
    }

    /// Run until the event queue is empty or `max_events` dispatches have
    /// happened. Returns the number of dispatches.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            if !self.step() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Run until virtual time `t` (events at exactly `t` included).
    /// Returns the number of dispatches.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        let mut n = 0;
        loop {
            match self.inner.queue.peek() {
                Some(Reverse(e)) if e.time <= t => {
                    self.step();
                    n += 1;
                }
                _ => break,
            }
        }
        if self.inner.clock < t {
            self.inner.clock = t;
        }
        n
    }

    /// Pop and dispatch one event. Returns false when idle.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.inner.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.inner.clock, "time went backwards");
        self.inner.clock = ev.time;
        match ev.kind {
            EventKind::Deliver { to, msg } => self.deliver(to, msg),
            EventKind::Crash { host } => self.crash(host),
        }
        self.install_pending();
        true
    }

    fn deliver(&mut self, to: ActorId, msg: Msg) {
        let idx = to.0 as usize;
        if idx >= self.actors.len() || !self.inner.actor_alive[idx] {
            self.inner.metrics.record_drop();
            return;
        }
        let mut a = self.actors[idx].take().expect("re-entrant dispatch");
        {
            let mut ctx = Ctx { inner: &mut self.inner, self_id: to };
            a.handle(&mut ctx, msg);
        }
        self.actors[idx] = Some(a);
    }

    fn crash(&mut self, host: HostId) {
        if self.inner.host_down[host.0 as usize] {
            return;
        }
        self.inner.host_down[host.0 as usize] = true;
        // Final notice to local actors, then mark dead.
        let locals: Vec<ActorId> = (0..self.actors.len())
            .filter(|&i| self.inner.actor_host[i] == host && self.inner.actor_alive[i])
            .map(|i| ActorId(i as u32))
            .collect();
        for id in &locals {
            self.deliver(*id, Msg::new(None, EngineNotice::HostCrashed));
            self.inner.actor_alive[id.0 as usize] = false;
        }
    }

    /// Bring a crashed host back up, empty: deliveries to it succeed
    /// again, but its dead actors stay dead (their state went with the
    /// node — a recovery layer places fresh actors and restores model
    /// state from a checkpoint).
    fn restore(&mut self, host: HostId) {
        self.inner.host_down[host.0 as usize] = false;
    }
}

/// The capabilities an actor gets while handling a message.
pub struct Ctx<'a> {
    inner: &'a mut Inner,
    self_id: ActorId,
}

impl<'a> Ctx<'a> {
    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock
    }

    /// Host this actor runs on.
    pub fn host(&self) -> HostId {
        self.inner.actor_host[self.self_id.0 as usize]
    }

    /// Host a given actor runs on.
    pub fn host_of(&self, a: ActorId) -> HostId {
        self.inner.actor_host[a.0 as usize]
    }

    /// Topology (routing, connectivity checks).
    pub fn topo(&mut self) -> &mut Topology {
        &mut self.inner.topo
    }

    /// Deterministic RNG for protocol randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.inner.rng
    }

    /// Metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.inner.metrics
    }

    /// Send `payload` of `bytes` simulated size to another actor over the
    /// network, tagged with a traffic class. Delivery is scheduled after the
    /// modeled transfer time; if the destination host is already down, the
    /// sender gets an [`EngineNotice::DeliveryFailed`] instead.
    pub fn send_net(&mut self, to: ActorId, bytes: u64, class: TrafficClass, payload: impl Any) {
        self.inner.metrics.record_send();
        let from_host = self.host();
        let to_host = self.inner.actor_host[to.0 as usize];
        if self.inner.host_down[to_host.0 as usize] {
            let t = self.inner.clock + self.inner.topo.loopback_latency;
            let me = self.self_id;
            self.inner.push_event(
                t,
                EventKind::Deliver {
                    to: me,
                    msg: Msg::new(None, EngineNotice::DeliveryFailed { to }),
                },
            );
            self.inner.metrics.record_drop();
            return;
        }
        let d = self.inner.transfer(from_host, to_host, bytes, class);
        let t = self.inner.clock + d;
        let from = Some(self.self_id);
        self.inner.push_event(
            t,
            EventKind::Deliver { to, msg: Msg { from, payload: Box::new(payload) } },
        );
    }

    /// Schedule a message to self after a delay (a timer).
    pub fn schedule_self(&mut self, after: SimDuration, payload: impl Any) {
        let t = self.inner.clock + after;
        let me = self.self_id;
        self.inner.push_event(t, EventKind::Deliver { to: me, msg: Msg::new(None, payload) });
    }

    /// Schedule a message to another actor after a delay without modeling
    /// network transfer (engine-internal coordination; use sparingly).
    pub fn schedule_for(&mut self, to: ActorId, after: SimDuration, payload: impl Any) {
        let t = self.inner.clock + after;
        self.inner
            .push_event(t, EventKind::Deliver { to, msg: Msg::new(Some(self.self_id), payload) });
    }

    /// Model a kernel execution on this actor's host: returns the modeled
    /// duration, charges host busy time, and can be combined with
    /// [`Ctx::schedule_self`] to signal completion.
    pub fn compute(&mut self, device: &Device, flops: f64, io_bytes: u64) -> SimDuration {
        let host = self.host();
        let spec = self.inner.topo.host(host).clone();
        let d = kernel_time(&spec.cpu, &spec.gpus, device, flops, io_bytes);
        self.inner.metrics.add_host_busy(host, d);
        d
    }

    /// Spawn a new actor on a host. The actor is installed (and `on_start`
    /// runs) right after the current handler returns, at the same virtual
    /// time.
    pub fn spawn(&mut self, host: HostId, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId((self.inner.actor_host.len() + self.inner.pending_actors.len()) as u32);
        self.inner.pending_actors.push((id, host, actor));
        id
    }

    /// Is a host down?
    pub fn host_is_down(&self, host: HostId) -> bool {
        self.inner.host_down[host.0 as usize]
    }

    /// Is an actor still alive?
    pub fn actor_alive(&self, a: ActorId) -> bool {
        self.inner.actor_alive.get(a.0 as usize).copied().unwrap_or(false)
    }

    /// Terminate an actor: it stops receiving deliveries. No-op for
    /// actors spawned in this same handler invocation (still pending
    /// install).
    pub fn kill_actor(&mut self, a: ActorId) {
        if let Some(alive) = self.inner.actor_alive.get_mut(a.0 as usize) {
            *alive = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::CpuSpec;
    use crate::topology::{FirewallPolicy, HostSpec};

    struct Echo {
        got: Vec<u32>,
        reply_to: Option<ActorId>,
    }

    impl Actor for Echo {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok((_, v)) = msg.downcast::<u32>() {
                self.got.push(v);
                if let Some(peer) = self.reply_to {
                    ctx.send_net(peer, 100, TrafficClass::Other, v + 1);
                }
            }
        }
    }

    fn sim_with_two_hosts() -> (Sim, HostId, HostId) {
        let mut t = Topology::new();
        let a = t.add_site("A", "", FirewallPolicy::Open);
        let b = t.add_site("B", "", FirewallPolicy::Open);
        t.add_link(a, b, SimDuration::from_millis(10), 1.0, "wan");
        let ha = t.add_host(HostSpec::node("a0", a, CpuSpec::generic()));
        let hb = t.add_host(HostSpec::node("b0", b, CpuSpec::generic()));
        (Sim::new(t, SimConfig::default()), ha, hb)
    }

    #[test]
    fn message_takes_latency_plus_serialization() {
        let (mut sim, ha, hb) = sim_with_two_hosts();
        let a = sim.add_actor(ha, Box::new(Echo { got: vec![], reply_to: None }));
        let b = sim.add_actor(hb, Box::new(Echo { got: vec![], reply_to: Some(a) }));
        sim.post(b, 7u32, SimDuration::ZERO);
        sim.run_to_quiescence(100);
        // b got 7 at ~0, replied 8 to a after one WAN hop (10 ms + tiny)
        assert!(sim.now().as_secs_f64() > 0.010);
        assert!(sim.now().as_secs_f64() < 0.012);
    }

    #[test]
    fn ping_pong_is_deterministic() {
        let run = || {
            let (mut sim, ha, hb) = sim_with_two_hosts();
            let a = sim.add_actor(ha, Box::new(Echo { got: vec![], reply_to: None }));
            let b = sim.add_actor(hb, Box::new(Echo { got: vec![], reply_to: Some(a) }));
            sim.post(b, 1u32, SimDuration::ZERO);
            sim.run_to_quiescence(100);
            sim.now().as_nanos()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn restored_host_accepts_fresh_actors() {
        let (mut sim, ha, hb) = sim_with_two_hosts();
        let a = sim.add_actor(ha, Box::new(Echo { got: vec![], reply_to: None }));
        let _b = sim.add_actor(hb, Box::new(Echo { got: vec![], reply_to: Some(a) }));
        sim.crash_host_at(hb, SimTime(1));
        sim.run_to_quiescence(100);
        assert!(sim.host_is_down(hb));
        sim.restore_host_now(hb);
        assert!(!sim.host_is_down(hb));
        // the node is back but empty; a freshly placed actor serves again
        let b2 = sim.add_actor(hb, Box::new(Echo { got: vec![], reply_to: Some(a) }));
        sim.post(b2, 5u32, SimDuration::ZERO);
        sim.run_to_quiescence(100);
        // b2 echoed back to a over the WAN: one 10 ms hop elapsed
        assert!(sim.now().as_secs_f64() > 0.010, "{:?}", sim.now());
    }

    #[test]
    fn crash_drops_messages() {
        let (mut sim, _, hb) = sim_with_two_hosts();
        let e = sim.add_actor(hb, Box::new(Echo { got: vec![], reply_to: None }));
        sim.crash_host_at(hb, SimTime(1));
        sim.post(e, 9u32, SimDuration::from_secs(1));
        sim.run_to_quiescence(100);
        assert_eq!(sim.metrics().messages_dropped(), 1);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut sim, _, _) = sim_with_two_hosts();
        sim.run_until(SimTime(5_000));
        assert_eq!(sim.now(), SimTime(5_000));
    }

    #[test]
    fn compute_charges_busy_time() {
        struct Cruncher;
        impl Actor for Cruncher {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                let d = ctx.compute(&Device::Cpu { threads: 1 }, 2.0e9, 0);
                assert_eq!(d.as_secs_f64(), 1.0); // generic cpu: 2 GFLOP/s/core
            }
        }
        let (mut sim, ha, _) = sim_with_two_hosts();
        let c = sim.add_actor(ha, Box::new(Cruncher));
        sim.post(c, (), SimDuration::ZERO);
        sim.run_to_quiescence(10);
        assert_eq!(sim.metrics().host_busy(ha).as_secs_f64(), 1.0);
    }

    #[test]
    fn spawn_from_handler_installs_actor() {
        struct Spawner {
            child_host: HostId,
        }
        struct Child;
        impl Actor for Child {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule_self(SimDuration::from_secs(1), 42u32);
            }
            fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
        }
        impl Actor for Spawner {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                ctx.spawn(self.child_host, Box::new(Child));
            }
        }
        let (mut sim, ha, hb) = sim_with_two_hosts();
        let s = sim.add_actor(ha, Box::new(Spawner { child_host: hb }));
        sim.post(s, (), SimDuration::ZERO);
        sim.run_to_quiescence(10);
        assert_eq!(sim.now(), SimTime(1_000_000_000));
    }
}

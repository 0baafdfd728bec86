//! Worker-process supervision: respawn dead `jungle-worker`s.
//!
//! The jungle assumption is that workers die — nodes are reclaimed,
//! reservations expire, links drop (the paper's §5 names fault
//! tolerance as the main open problem). This module is the deploy
//! layer's answer: a [`ProcessSupervisor`] owns the launch recipe
//! ([`WorkerSpec`]) for each shard of a pool and implements
//! [`jc_amuse::ShardSupervisor`], so a
//! [`jc_amuse::ShardedChannel`] whose worker process dies gets a fresh
//! process and a fresh [`ReactorChannel`] to it — the coupler then
//! restores model state from its last checkpoint and replays
//! (see `jc_amuse::bridge::Bridge::iteration_recovering`).
//!
//! Rendezvous is file-based: workers are launched with
//! `--bind 127.0.0.1:0 --port-file PATH` and write their ephemeral
//! address to `PATH`; the supervisor polls that file instead of parsing
//! stdout, so the child's output stays free for logs.

use jc_amuse::channel::Channel;
use jc_amuse::reactor::{Reactor, ReactorChannel};
use jc_amuse::shard::ShardSupervisor;
use jc_amuse::SocketChannel;
use std::cell::RefCell;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The launch recipe for one worker process. The worker builds its
/// placeholder initial conditions from `jungle-worker`'s own defaults
/// (the one place that recipe is written down); the coupler restores
/// the real model state from a checkpoint.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Path to the `jungle-worker` binary.
    pub binary: PathBuf,
    /// `--model` value (gravity / hydro / coupling / octgrav / stellar).
    pub model: String,
    /// `--shard I/K`, if the worker serves one slice of a pool.
    pub shard: Option<(usize, usize)>,
}

impl WorkerSpec {
    /// A spec serving the whole model.
    pub fn new(binary: impl Into<PathBuf>, model: impl Into<String>) -> WorkerSpec {
        WorkerSpec { binary: binary.into(), model: model.into(), shard: None }
    }

    /// Serve shard `i` of `k`.
    pub fn with_shard(mut self, i: usize, k: usize) -> WorkerSpec {
        self.shard = Some((i, k));
        self
    }

    fn command(&self, port_file: &Path) -> Command {
        let mut c = Command::new(&self.binary);
        c.arg("--model")
            .arg(&self.model)
            .arg("--bind")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(port_file);
        if let Some((i, k)) = self.shard {
            c.arg("--shard").arg(format!("{i}/{k}"));
        }
        c.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::inherit());
        c
    }
}

/// One supervised slot: the running child (if any) and its last known
/// address.
struct Slot {
    child: Option<Child>,
    addr: Option<SocketAddr>,
}

/// Launches, reconnects, respawns and reaps `jungle-worker` processes —
/// the [`ShardSupervisor`] a production pool plugs into its
/// [`jc_amuse::ShardedChannel`].
pub struct ProcessSupervisor {
    specs: Vec<WorkerSpec>,
    slots: Vec<Slot>,
    /// Respawns still allowed (decremented per respawn; launch via
    /// [`ProcessSupervisor::spawn_all`] is free).
    budget: u32,
    /// How long to wait for a freshly launched worker's port file.
    pub startup_timeout: Duration,
    port_dir: PathBuf,
    /// Process-unique supervisor token, part of every rendezvous path:
    /// two supervisors in one process (parallel tests) must never read
    /// each other's port files.
    token: u64,
    /// The event loop every channel handed out (initial launch and
    /// respawn alike) is registered on, so a
    /// [`jc_amuse::ShardedChannel`] over the pool fans out pipelined.
    reactor: Rc<RefCell<Reactor>>,
    /// Every channel handed out carries this retry policy (in-place
    /// resend of transient faults, optional per-request deadline;
    /// default none) — the service layer's warm pools lease channels
    /// that must already know how to ride out a flaky link.
    retry: jc_amuse::chaos::RetryPolicy,
}

static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl ProcessSupervisor {
    /// A supervisor over one spec per shard, allowed `max_respawns`
    /// replacement launches in total.
    pub fn new(specs: Vec<WorkerSpec>, max_respawns: u32) -> ProcessSupervisor {
        let slots = specs.iter().map(|_| Slot { child: None, addr: None }).collect();
        ProcessSupervisor {
            specs,
            slots,
            budget: max_respawns,
            startup_timeout: Duration::from_secs(10),
            port_dir: std::env::temp_dir(),
            token: NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            reactor: Reactor::new_shared().expect("create the supervisor's poller"),
            retry: jc_amuse::chaos::RetryPolicy::none(),
        }
    }

    /// Hand out channels armed with `retry` (applies to
    /// [`ProcessSupervisor::spawn_all`] and every later respawn alike).
    pub fn with_retry(mut self, retry: jc_amuse::chaos::RetryPolicy) -> ProcessSupervisor {
        self.retry = retry;
        self
    }

    /// The last known address of shard `i`'s worker.
    pub fn addr(&self, i: usize) -> Option<SocketAddr> {
        self.slots.get(i).and_then(|s| s.addr)
    }

    /// Per-slot rendezvous path, unique per (pid, supervisor, slot).
    /// Deleted before every launch, so a respawn never reads a stale
    /// address from the previous incarnation.
    fn port_file(&self, i: usize) -> PathBuf {
        self.port_dir.join(format!("jungle-worker-{}-{}-{i}.port", std::process::id(), self.token))
    }

    /// Launch one worker process and connect to it.
    fn launch(&mut self, i: usize) -> io::Result<Box<dyn Channel>> {
        let port_file = self.port_file(i);
        let _ = std::fs::remove_file(&port_file);
        let child = self.specs[i].command(&port_file).spawn()?;
        self.slots[i].child = Some(child);
        let deadline = Instant::now() + self.startup_timeout;
        let addr: SocketAddr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(s) if !s.trim().is_empty() => match s.trim().parse() {
                    Ok(a) => break a,
                    Err(e) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad port file {s:?}: {e}"),
                        ))
                    }
                },
                _ => {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "worker did not write its port file",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        let _ = std::fs::remove_file(&port_file);
        self.slots[i].addr = Some(addr);
        let name = format!("{}-{i}", self.specs[i].model);
        Ok(Box::new(ReactorChannel::connect(&self.reactor, addr, name)?.with_retry(self.retry)))
    }

    /// Launch every worker and return one connected channel per spec
    /// (in spec order) — the initial pool for a
    /// [`jc_amuse::ShardedChannel`].
    pub fn spawn_all(&mut self) -> io::Result<Vec<Box<dyn Channel>>> {
        let mut out: Vec<Box<dyn Channel>> = Vec::with_capacity(self.specs.len());
        for i in 0..self.specs.len() {
            out.push(self.launch(i)?);
        }
        Ok(out)
    }

    /// Reap slot `i`'s child (kill if still running).
    fn reap(&mut self, i: usize) {
        if let Some(mut child) = self.slots[i].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Failure injection: SIGKILL worker `i` (no clean shutdown, no
    /// reply to the coupler — a node crash as the jungle delivers it).
    /// The slot stays eligible for [`ShardSupervisor::respawn`].
    pub fn kill(&mut self, i: usize) {
        self.reap(i);
        self.slots[i].addr = None;
    }

    /// Ask every live worker to shut down cleanly
    /// ([`jc_amuse::worker::Request::Shutdown`] over a fresh
    /// connection), then wait for the processes — deterministic
    /// teardown instead of `SIGKILL`.
    pub fn shutdown_all(&mut self) {
        for i in 0..self.slots.len() {
            if let Some(addr) = self.slots[i].addr {
                let _ = SocketChannel::shutdown_worker(addr);
            }
            if let Some(mut child) = self.slots[i].child.take() {
                // the server exited on Shutdown; wait() must not hang,
                // but kill as a backstop for workers that never bound
                let done = child.try_wait().ok().flatten().is_some();
                if !done {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    loop {
                        match child.try_wait() {
                            Ok(Some(_)) => break,
                            _ if Instant::now() > deadline => {
                                let _ = child.kill();
                                let _ = child.wait();
                                break;
                            }
                            _ => std::thread::sleep(Duration::from_millis(10)),
                        }
                    }
                }
            }
        }
    }
}

impl Drop for ProcessSupervisor {
    fn drop(&mut self) {
        self.shutdown_all();
    }
}

impl ShardSupervisor for ProcessSupervisor {
    fn respawn(&mut self, shard: usize) -> Option<Box<dyn Channel>> {
        if shard >= self.specs.len() || self.budget == 0 {
            return None;
        }
        self.reap(shard);
        match self.launch(shard) {
            Ok(ch) => {
                // only a delivered replacement spends the budget — a
                // failed launch must not eat future respawns
                self.budget -= 1;
                Some(ch)
            }
            Err(e) => {
                eprintln!(
                    "supervisor: respawn of {} shard {shard} failed: {e}",
                    self.specs[shard].model
                );
                None
            }
        }
    }
}

//! Batch-queue scheduler model (PBS/SGE-style).
//!
//! Grid resources in the jungle "will have to be reserved" (§2). The GAT
//! adapters submit jobs through a [`BatchQueue`]: a FIFO scheduler over a
//! fixed pool of nodes, with walltime limits. When a reservation expires
//! the job is killed — the exact fault mode the paper's prototype could not
//! recover from (§5: "If a reservation ends for a resource, and the worker
//! is killed by the scheduler, we cannot recover from this fault").

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifies a submitted batch job.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BatchJobId(pub u64);

/// State of a batch job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchJobState {
    /// Waiting in the queue for nodes.
    Queued,
    /// Running on its nodes.
    Running {
        /// When the job started.
        started: SimTime,
        /// When the reservation expires (job killed at this time).
        deadline: SimTime,
    },
    /// Finished voluntarily before the deadline.
    Completed,
    /// Killed by the scheduler at reservation expiry.
    KilledByScheduler,
}

#[derive(Clone, Debug)]
struct BatchJob {
    id: BatchJobId,
    nodes: u32,
    walltime: SimDuration,
    state: BatchJobState,
}

/// What changed after [`BatchQueue::advance`] / other mutations; consumers
/// (GAT adapters) translate these into job-status callbacks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchEvent {
    /// Job left the queue and started on its nodes.
    Started(BatchJobId),
    /// Job was killed because its walltime expired.
    Killed(BatchJobId),
}

/// A FIFO batch scheduler over `total_nodes` identical nodes.
pub struct BatchQueue {
    total_nodes: u32,
    free_nodes: u32,
    queue: VecDeque<BatchJobId>,
    jobs: Vec<BatchJob>,
    default_walltime: SimDuration,
}

impl BatchQueue {
    /// Create a queue over a node pool.
    pub fn new(total_nodes: u32) -> BatchQueue {
        assert!(total_nodes > 0);
        BatchQueue {
            total_nodes,
            free_nodes: total_nodes,
            queue: VecDeque::new(),
            jobs: Vec::new(),
            default_walltime: SimDuration::from_secs(15 * 60),
        }
    }

    /// Nodes in the pool.
    pub fn total_nodes(&self) -> u32 {
        self.total_nodes
    }

    /// Currently free nodes.
    pub fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    /// Submit a job needing `nodes` nodes for at most `walltime` (None uses
    /// the site default). Returns the id; call [`BatchQueue::advance`] to
    /// let it start.
    pub fn submit(&mut self, nodes: u32, walltime: Option<SimDuration>) -> BatchJobId {
        assert!(nodes > 0 && nodes <= self.total_nodes, "job larger than machine");
        let id = BatchJobId(self.jobs.len() as u64);
        self.jobs.push(BatchJob {
            id,
            nodes,
            walltime: walltime.unwrap_or(self.default_walltime),
            state: BatchJobState::Queued,
        });
        self.queue.push_back(id);
        id
    }

    /// Current state of a job.
    pub fn state(&self, id: BatchJobId) -> BatchJobState {
        self.jobs[id.0 as usize].state
    }

    /// Mark a running job as finished voluntarily, freeing its nodes.
    pub fn complete(&mut self, id: BatchJobId) {
        let job = &mut self.jobs[id.0 as usize];
        if let BatchJobState::Running { .. } = job.state {
            job.state = BatchJobState::Completed;
            self.free_nodes += job.nodes;
        }
    }

    /// Advance the scheduler to time `now`: kill expired reservations and
    /// start queued jobs (strict FIFO — a big job at the head blocks smaller
    /// ones behind it, like a conservative PBS configuration).
    pub fn advance(&mut self, now: SimTime) -> Vec<BatchEvent> {
        let mut events = Vec::new();
        // Reservation expiry.
        for job in &mut self.jobs {
            if let BatchJobState::Running { deadline, .. } = job.state {
                if now >= deadline {
                    job.state = BatchJobState::KilledByScheduler;
                    self.free_nodes += job.nodes;
                    events.push(BatchEvent::Killed(job.id));
                }
            }
        }
        // FIFO start.
        while let Some(&head) = self.queue.front() {
            let nodes = self.jobs[head.0 as usize].nodes;
            if nodes > self.free_nodes {
                break;
            }
            self.queue.pop_front();
            self.free_nodes -= nodes;
            let wall = self.jobs[head.0 as usize].walltime;
            self.jobs[head.0 as usize].state =
                BatchJobState::Running { started: now, deadline: now + wall };
            events.push(BatchEvent::Started(head));
        }
        events
    }

    /// Earliest future time at which [`BatchQueue::advance`] could change
    /// something (the next reservation deadline), for event scheduling.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.jobs
            .iter()
            .filter_map(|j| match j.state {
                BatchJobState::Running { deadline, .. } => Some(deadline),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_start_and_completion() {
        let mut q = BatchQueue::new(4);
        let a = q.submit(2, None);
        let b = q.submit(2, None);
        let c = q.submit(2, None);
        let ev = q.advance(SimTime::ZERO);
        assert_eq!(ev, vec![BatchEvent::Started(a), BatchEvent::Started(b)]);
        assert_eq!(q.state(c), BatchJobState::Queued);
        q.complete(a);
        let ev = q.advance(SimTime(1));
        assert_eq!(ev, vec![BatchEvent::Started(c)]);
    }

    #[test]
    fn big_job_blocks_head_of_queue() {
        let mut q = BatchQueue::new(4);
        let a = q.submit(3, None);
        let big = q.submit(4, None);
        let small = q.submit(1, None);
        q.advance(SimTime::ZERO);
        assert_eq!(
            q.state(a),
            BatchJobState::Running {
                started: SimTime::ZERO,
                deadline: SimTime::ZERO + SimDuration::from_secs(900)
            }
        );
        // strict FIFO: small cannot jump over big
        assert_eq!(q.state(big), BatchJobState::Queued);
        assert_eq!(q.state(small), BatchJobState::Queued);
        assert_eq!(q.free_nodes(), 1);
    }

    #[test]
    fn reservation_expiry_kills_job() {
        let mut q = BatchQueue::new(2);
        let a = q.submit(2, Some(SimDuration::from_secs(10)));
        q.advance(SimTime::ZERO);
        assert_eq!(q.next_deadline(), Some(SimTime(10_000_000_000)));
        let ev = q.advance(SimTime(10_000_000_000));
        assert_eq!(ev, vec![BatchEvent::Killed(a)]);
        assert_eq!(q.state(a), BatchJobState::KilledByScheduler);
        assert_eq!(q.free_nodes(), 2);
    }

    #[test]
    #[should_panic]
    fn oversized_job_rejected() {
        let mut q = BatchQueue::new(2);
        q.submit(3, None);
    }
}

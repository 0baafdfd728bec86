//! CPU affinity: every measured run is confined to one CPU.
//!
//! On the two-vCPU virtual machine this benchmark was sized on, a
//! wake-up that crosses CPUs goes through the hypervisor, costs tens of
//! microseconds, and flips between a fast and a slow regime on a scale
//! of tens of seconds: the loopback workloads' median moved 2× between
//! identical runs. Confined to one CPU a hand-off is a context switch;
//! the same runs repeat within a few percent (and are twice as fast).
//! So the benchmark measures the software path on one CPU — coupler,
//! workers and service threads time-slice it — and reports the
//! cross-CPU round trip separately, as the layer probes
//! `*.rtt_small_xcpu_us`.
//!
//! Linux only (the `sched_*affinity` calls come from the C library std
//! already links); elsewhere these are no-ops and runs are unpinned.

/// A CPU set as the kernel reads it: bit `n` of word `n / 64` is CPU `n`.
pub type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub(super) fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread; `set` is a live, writable
        // buffer of exactly `size_of::<CpuSet>()` bytes, which is the size
        // passed, and the kernel writes at most that many.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub(super) fn set(set: &CpuSet) -> bool {
        // SAFETY: pid 0 names the calling thread; `set` is a live buffer of
        // exactly the size passed and is only read.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub(super) fn get() -> Option<CpuSet> {
        None
    }

    pub(super) fn set(_: &CpuSet) -> bool {
        false
    }
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> Option<CpuSet> {
    sys::get()
}

/// Let the calling thread, and every thread it spawns from now on, run
/// on exactly the CPUs in `set`.
pub fn restrict_to(set: &CpuSet) -> bool {
    sys::set(set)
}

/// Confine the calling thread (and threads spawned later) to the
/// highest-numbered CPU of `from`: CPU 0 takes most interrupts. Returns
/// that CPU's index.
pub fn pin_to_last(from: &CpuSet) -> Option<usize> {
    let word = from.iter().rposition(|w| *w != 0)?;
    let bit = 63 - from[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    restrict_to(&one).then_some(word * 64 + bit)
}

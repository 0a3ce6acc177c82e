//! Spreading the worker pool over the CPUs.
//!
//! A scoring worker under load never blocks: the job queue always holds its
//! next request. When the scheduler happens to place two such workers on
//! the same CPU, nothing wakes them onto another one, and they stay there
//! until the kernel's load balancer moves one. On a 2-CPU machine that took
//! about a second, in which the server scored at half speed while the other
//! CPU sat mostly idle. So when the pool has a worker for every CPU the
//! thread may run on, each worker is pinned to one CPU of its own, in turn.
//! A smaller pool is left to the scheduler: it does not fill the machine,
//! and pinning it would crowd every server in the process onto the same
//! first CPUs.
//!
//! Pinning is best effort. Where the CPU set cannot be read or set (another
//! operating system, or more CPUs than one `cpu_set_t` holds), workers run
//! wherever the scheduler puts them, as they did before.

/// The CPU that worker `index` of a pool of `workers` is pinned to, given
/// the `allowed` CPUs in ascending order; `None` when the pool is left to
/// the scheduler.
pub(crate) fn worker_cpu(index: usize, workers: usize, allowed: &[usize]) -> Option<usize> {
    if allowed.len() < 2 || workers < allowed.len() {
        return None;
    }
    Some(allowed[index % allowed.len()])
}

/// Pin the calling thread, worker `index` of a pool of `workers`, to its
/// CPU (see [`worker_cpu`]). Does nothing when the pool is left to the
/// scheduler or the CPU set cannot be read or changed.
pub(crate) fn pin_worker(index: usize, workers: usize) {
    let Some(allowed) = sys::allowed_cpus() else {
        return;
    };
    if let Some(cpu) = worker_cpu(index, workers, &allowed) {
        sys::pin_current_thread(cpu);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! `sched_getaffinity` / `sched_setaffinity` on the calling thread,
    //! declared directly as in the vendored `polling` shim: no `libc`
    //! crate is linked.

    /// Words in glibc's `cpu_set_t`: a mask of 1024 CPUs.
    const WORDS: usize = 1024 / 64;
    const CPUS: usize = WORDS * 64;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, in ascending order.
    pub(crate) fn allowed_cpus() -> Option<Vec<usize>> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let status =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if status != 0 {
            return None;
        }
        Some(
            (0..CPUS)
                .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect(),
        )
    }

    /// Restrict the calling thread to `cpu`, one of [`allowed_cpus`]. A
    /// refusal by the kernel leaves the thread's CPU set as it was.
    pub(crate) fn pin_current_thread(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! No CPU affinity outside Linux: workers run where the scheduler
    //! puts them.

    pub(crate) fn allowed_cpus() -> Option<Vec<usize>> {
        None
    }

    pub(crate) fn pin_current_thread(_cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pool_with_a_worker_per_cpu_takes_the_cpus_in_turn() {
        let allowed = [2, 5, 7];
        let cpus: Vec<_> = (0..3).map(|i| worker_cpu(i, 3, &allowed)).collect();
        assert_eq!(cpus, [Some(2), Some(5), Some(7)]);
        // A larger pool wraps round, so no CPU holds two more than another.
        let cpus: Vec<_> = (0..5).map(|i| worker_cpu(i, 5, &allowed)).collect();
        assert_eq!(cpus, [Some(2), Some(5), Some(7), Some(2), Some(5)]);
    }

    #[test]
    fn a_smaller_pool_or_a_single_cpu_is_left_to_the_scheduler() {
        assert_eq!(worker_cpu(0, 2, &[0, 1, 2, 3]), None);
        assert_eq!(worker_cpu(1, 2, &[0, 1, 2, 3]), None);
        assert_eq!(worker_cpu(0, 4, &[0]), None);
        assert_eq!(worker_cpu(0, 1, &[]), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pinned_worker_runs_on_its_cpu_alone() {
        let allowed = sys::allowed_cpus().expect("the calling thread's CPU set is readable");
        assert!(!allowed.is_empty());
        let workers = allowed.len();
        // A thread of its own, so the test thread keeps its CPU set.
        let seen = std::thread::spawn(move || {
            pin_worker(workers - 1, workers);
            sys::allowed_cpus()
        })
        .join()
        .expect("the pinned thread finished");
        let expected = match worker_cpu(workers - 1, workers, &allowed) {
            Some(cpu) => vec![cpu],
            // One CPU: nothing to spread, and the set is left as it was.
            None => allowed.clone(),
        };
        assert_eq!(seen, Some(expected));
    }
}

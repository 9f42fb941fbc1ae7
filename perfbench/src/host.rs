//! What the host gave a run: the CPU time of the run's process, and
//! the time the hypervisor stole from the machine's CPUs meanwhile.
//!
//! On a shared virtual machine the hypervisor deschedules a vCPU for
//! whole seconds at a time (steal time). Wall time counts those
//! seconds; the scheduler's per-thread run time does not. The benchmark
//! therefore times the run call in CPU seconds of its process and keeps
//! the wall and steal times beside it in the record.

/// CPU time of every thread of this process so far, in nanoseconds:
/// the sum of the first field of `/proc/self/task/*/schedstat`, the
/// scheduler's run time, which excludes steal time. `None` where the
/// file is missing (not Linux, or schedstats compiled out).
pub fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`), 100 on every
/// Linux architecture the simulator builds on.
const USER_HZ: f64 = 100.0;

/// Steal time summed over the machine's CPUs so far, in seconds, from
/// the `cpu` line of `/proc/stat`; 0 where it is missing.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_steal_never_goes_back() {
        let (cpu0, steal0) = (process_cpu_ns(), steal_s());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        if let (Some(a), Some(b)) = (cpu0, process_cpu_ns()) {
            assert!(b > a, "{a} -> {b}");
        }
        assert!(steal_s() >= steal0);
    }
}

//! The benchmark's host clock: CPU time of the calling thread.
//!
//! The benchmark runs on one thread, so the thread's CPU time is the
//! host time the program itself consumed. On a virtual machine wall time
//! also counts the time the hypervisor spends running other guests on
//! this guest's virtual CPU (steal time); on the 2-vCPU development box
//! that share moved between about 2% and 25% within a minute. The thread
//! CPU clock (`CLOCK_THREAD_CPUTIME_ID`) leaves it out, and still counts
//! the kernel's work for the thread (page faults, file reads).

use std::time::Duration;

/// A reading of the calling thread's CPU-time clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(u64);

impl CpuInstant {
    /// The thread's CPU time now.
    pub fn now() -> CpuInstant {
        CpuInstant(thread_cpu_ns())
    }

    /// CPU time the thread has used since `self`.
    pub fn elapsed(self) -> Duration {
        Duration::from_nanos(thread_cpu_ns().saturating_sub(self.0))
    }
}

/// Nanoseconds of CPU time the calling thread has used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call to fill;
    // the clock id is a constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Elsewhere, wall time since the first reading: the benchmark's numbers
/// then include whatever else the host runs.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    u64::try_from(
        EPOCH
            .get_or_init(std::time::Instant::now)
            .elapsed()
            .as_nanos(),
    )
    .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn counts_work_and_not_sleep() {
        let cpu = CpuInstant::now();
        let wall = Instant::now();
        let mut x = 1u64;
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = cpu.elapsed();
        assert!(
            busy > Duration::from_millis(5) && busy <= wall.elapsed(),
            "{busy:?}"
        );
        let cpu = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            cpu.elapsed() < Duration::from_millis(10),
            "{:?}",
            cpu.elapsed()
        );
    }
}

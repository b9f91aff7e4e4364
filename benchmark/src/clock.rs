//! The benchmark's clocks.
//!
//! Every cell is single-threaded and does no I/O, so on a quiet host the
//! on-CPU time of the calling thread equals wall time. This box is a shared
//! 2-core VM: sizing runs saw wall time inflate 2.6x for seconds at a stretch
//! (hypervisor steal) while the thread CPU clock moved ~10 %. `host_s`,
//! `setup_s` and every `*_ns` probe therefore read the thread CPU clock; wall
//! time is kept beside it (`harness.wall_s`, `harness.cpu_share`, the spans of
//! the traced run, the two 2-thread speed-up probes) so the difference shows.

use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
mod sys {
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    fn read(clock_id: i32) -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux, the only target this module compiles for)
        // and both clock ids are defined by POSIX; the call writes `ts` only.
        let rc = unsafe { clock_gettime(clock_id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }

    pub fn thread_cpu() -> Duration {
        read(CLOCK_THREAD_CPUTIME_ID)
    }

    pub fn process_cpu() -> Duration {
        read(CLOCK_PROCESS_CPUTIME_ID)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! No CPU clock without libc: fall back to wall time since first use.
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    static ORIGIN: OnceLock<Instant> = OnceLock::new();

    pub fn thread_cpu() -> Duration {
        ORIGIN.get_or_init(Instant::now).elapsed()
    }

    pub fn process_cpu() -> Duration {
        thread_cpu()
    }
}

/// On-CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    sys::thread_cpu()
}

/// On-CPU time of the whole process so far (all threads, user + system).
pub fn process_cpu() -> Duration {
    sys::process_cpu()
}

/// One timed interval in both clocks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Lap {
    /// Thread CPU seconds (the benchmark's clock).
    pub cpu_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
}

/// Starts both clocks; [`Stopwatch::lap`] reads them.
pub struct Stopwatch {
    cpu: Duration,
    wall: Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        let cpu = thread_cpu();
        Lap {
            cpu_s: cpu.saturating_sub(self.cpu).as_secs_f64(),
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Time one call.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Lap) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.lap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let (_, busy) = time(|| {
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i * i));
            }
            x
        });
        assert!(busy.cpu_s > 0.0 && busy.wall_s > 0.0);
        if cfg!(target_os = "linux") {
            let (_, idle) = time(|| std::thread::sleep(Duration::from_millis(30)));
            assert!(idle.wall_s >= 0.03);
            assert!(idle.cpu_s < 0.02, "sleep burns no CPU: {idle:?}");
        }
    }
}

//! Host measurements: the reference kernel every timing is divided by,
//! process CPU time, peak resident memory, and the host fingerprint.

use std::hint::black_box;
use std::time::Instant;

/// Elements the reference kernel sorts and hashes.
const REF_LEN: usize = 1 << 20;

/// A fixed sort-and-hash kernel over 1 M pseudo-random `u64`s.
///
/// Host speed on a shared machine drifts by far more than the effects a
/// benchmark wants to see, so each repetition is timed next to this
/// kernel (several times right before and right after) and reported as a
/// multiple of it. The kernel is branchy, allocation-free after the
/// first call and touches 8 MiB, like the engine's event loop.
pub struct RefKernel {
    buf: Vec<u64>,
}

impl RefKernel {
    #[must_use]
    pub fn new() -> Self {
        RefKernel {
            buf: vec![0; REF_LEN],
        }
    }

    /// Wall times of `timings` runs of the kernel, in seconds.
    pub fn sample(&mut self, timings: usize) -> Vec<f64> {
        (0..timings).map(|_| self.time()).collect()
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for slot in &mut self.buf {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        self.buf.sort_unstable();
        let hash = self.buf.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        });
        black_box(hash);
        start.elapsed().as_secs_f64()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by this process so far: every thread, including
/// threads that have already exited, at nanosecond resolution (unlike
/// `/proc/self/stat`, which counts in 10 ms ticks).
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock_gettime`
    // writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `nproc`, the CPU model and the compiler that built this binary.
#[must_use]
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    format!(
        "nproc={nproc} cpu=\"{model}\" rustc=\"{}\"",
        env!("BENCH_RUSTC_VERSION")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        RefKernel::new().time();
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}

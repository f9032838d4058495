//! Process-level resource readings.

use std::fs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) the process has consumed, all threads
/// included — live ones and those that already exited. `/proc/self/stat`
/// has the same number in 10 ms ticks, too coarse for a one-second round.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the C
    // library uses on 64-bit Linux (two 64-bit fields), and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("status has VmHWM");
    let kb: f64 = line.split_whitespace().nth(1).expect("VmHWM value").parse().expect("numeric");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cpu_clock_follows_busy_time_of_every_thread() {
        let spin = || {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_secs_f64() < 0.05 {
                x = x.wrapping_add(std::hint::black_box(1));
            }
            x
        };
        let before = cpu_secs();
        std::thread::scope(|s| {
            s.spawn(spin);
            spin();
        });
        let used = cpu_secs() - before;
        // Two threads spun for 50 ms each; a loaded host may have given them
        // less, and other tests of this process add their own.
        assert!(used > 0.02, "{used}");
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 1.0);
    }
}

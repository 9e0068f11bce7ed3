//! Thin shims over the few Linux facilities the benchmark needs and
//! `std` does not expose: CPU-time clocks, host CPU steal, a
//! nanosecond-timeout `ppoll`, and timer slack.

use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use geacc_server::poll::PollFd;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: a valid clock id and an exclusively borrowed timespec.
    unsafe {
        clock_gettime(clock, &mut ts);
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time every thread of this process has run so far.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has run so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Cumulative CPU time the hypervisor stole from this guest, in clock
/// ticks (the `steal` column of `/proc/stat`); `None` where there is no
/// such file.
pub fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    text.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Share of the guest's CPU capacity the host stole since `started`,
/// given the steal ticks read then (at the usual USER_HZ of 100).
pub fn steal_frac(started: Instant, before: Option<u64>) -> Option<f64> {
    let stolen = steal_ticks()?.checked_sub(before?)?;
    let capacity = started.elapsed().as_secs_f64() * 100.0 * nproc() as f64;
    Some(stolen as f64 / capacity)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Block until `fd` has one of `events` or `until` comes, whichever is
/// first (nanosecond timeout, unlike `poll(2)`'s milliseconds).
pub fn wait_io(fd: RawFd, events: i16, until: Instant) {
    let left = until.saturating_duration_since(Instant::now());
    let ts = Timespec {
        tv_sec: left.as_secs() as i64,
        tv_nsec: left.subsec_nanos() as i64,
    };
    let mut fds = [PollFd::new(fd, events)];
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    unsafe {
        ppoll(fds.as_mut_ptr(), 1, &ts, std::ptr::null());
    }
}

/// Round the calling thread's sleeps to 1 ns rather than the default
/// 50 µs, so timed waits end on schedule.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // affects the calling thread's sleep rounding.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64, 0u64, 0u64, 0u64);
    }
}

//! Process accounting read from procfs with the standard library only:
//! CPU time and thread count from `/proc/self/stat`, peak resident set
//! from `/proc/self/status`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// The fields of `/proc/self/stat` after the parenthesised command name,
/// so index 0 is field 3 (`state`) of proc(5).
fn stat_fields() -> Vec<u64> {
    let s = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let close = s.rfind(')').expect("stat has a command name");
    s[close + 1..]
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect()
}

/// User plus system CPU seconds this process has used so far (all
/// threads, 10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let f = stat_fields();
    // proc(5) fields 14 (utime) and 15 (stime).
    (f[11] + f[12]) as f64 / USER_HZ
}

/// Threads the process has right now (proc(5) field 20).
pub fn threads() -> u64 {
    stat_fields()[17]
}

/// Peak resident set (`VmHWM`) in MiB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = s
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Resets `VmHWM` to the live resident set: freed heap the allocator
/// still holds goes back to the kernel first (glibc keeps it resident),
/// then `5` is written to `/proc/self/clear_refs`. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only returns unused heap pages to the
        // kernel; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall and CPU time of one measured window.
pub struct Window {
    start: Instant,
    cpu0: f64,
}

impl Window {
    pub fn start() -> Window {
        Window {
            cpu0: cpu_seconds(),
            start: Instant::now(),
        }
    }

    /// `(wall seconds, CPU seconds)` since [`Window::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu0)
    }
}

/// A background thread that polls the process's thread count every few
/// milliseconds and keeps the peak. It sleeps between polls, so its own
/// CPU share is negligible; [`ThreadSampler::finish`] excludes it from
/// the count.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        ThreadSampler { stop, peak, handle }
    }

    /// Stops the sampler and returns the peak thread count it saw,
    /// itself excluded.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler does not panic");
        self.peak.load(Ordering::Relaxed).saturating_sub(1)
    }
}

/// CPU-seconds per wall-second below which a window counts as starved.
/// Every workload keeps at least one thread busy throughout its window.
pub const STARVED_BELOW: f64 = 0.75;

/// Judges a window from its effective parallelism (CPU ÷ wall) and the
/// number of threads that were busy in it: `OVERSUBSCRIBED` when more
/// threads were busy than there are CPUs, `STARVED` when the window got
/// less than [`STARVED_BELOW`] of a CPU (the machine, not the code, set
/// its wall time), `None` when its wall times can be trusted. Logs the
/// figures to stderr, so every untraced run records the CPU share next
/// to its wall-time metrics.
pub fn verdict(cpu_util: f64, busy_threads: u64) -> Option<&'static str> {
    eprintln!(
        "process: cpu_util {cpu_util:.3}, busy threads {busy_threads}, nproc {}",
        nproc()
    );
    if busy_threads as usize > nproc() {
        Some("OVERSUBSCRIBED")
    } else if cpu_util < STARVED_BELOW {
        Some("STARVED")
    } else {
        None
    }
}

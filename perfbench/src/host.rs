//! `/proc` sampling and the host facts every report carries.
//!
//! Host facts describe the machine, not the code: they are reported so a
//! reader can tell two hosts apart and are never gated.

use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Linux `USER_HZ`: the unit of the tick counts in `/proc/*/stat`.
const TICKS_PER_S: f64 = 100.0;

/// CPU and scheduling counters of one thread or process.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    /// User CPU, µs.
    pub user_us: f64,
    /// System CPU, µs.
    pub sys_us: f64,
    /// Voluntary plus involuntary context switches (threads only).
    pub ctx_switches: u64,
}

impl CpuSample {
    /// User plus system CPU, µs.
    pub fn total_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    /// The sum of two samples' counters.
    pub fn plus(&self, other: &CpuSample) -> CpuSample {
        CpuSample {
            user_us: self.user_us + other.user_us,
            sys_us: self.sys_us + other.sys_us,
            ctx_switches: self.ctx_switches + other.ctx_switches,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// utime and stime (fields 14 and 15) of a `stat` file, in µs.
fn stat_times(path: &str) -> Option<(f64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &text[text.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S * 1e6, stime / TICKS_PER_S * 1e6))
}

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The calling thread's counters. Total CPU comes from `schedstat`
/// (nanoseconds) when available, split into user and system in the
/// tick-resolution ratio of `stat`.
pub fn thread_cpu() -> CpuSample {
    let (user, sys) = stat_times("/proc/thread-self/stat").unwrap_or_default();
    let precise = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| {
            t.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map(|ns| ns / 1e3);
    let (user_us, sys_us) = match precise {
        Some(total) if user + sys > 0.0 => {
            (total * user / (user + sys), total * sys / (user + sys))
        }
        Some(total) => (total, 0.0),
        None => (user, sys),
    };
    let ctx = status_field("/proc/thread-self/status", "voluntary_ctxt_switches:").unwrap_or(0)
        + status_field("/proc/thread-self/status", "nonvoluntary_ctxt_switches:").unwrap_or(0);
    CpuSample {
        user_us,
        sys_us,
        ctx_switches: ctx,
    }
}

/// The whole process's user and system CPU (every thread).
pub fn process_cpu() -> CpuSample {
    let (user_us, sys_us) = stat_times("/proc/self/stat").unwrap_or_default();
    CpuSample {
        user_us,
        sys_us,
        ctx_switches: 0,
    }
}

/// The process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Returns freed heap pages to the kernel and restarts the `VmHWM` peak
/// from the resident set that is left, so each night's peak is its own
/// and not an echo of how earlier nights fragmented the heap. Where
/// `/proc/self/clear_refs` is not writable the peak keeps counting from
/// process start.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free memory the allocator holds;
    // it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
    // Best effort, see above. cwc-lint: allow(error_swallowing)
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Usable CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs the calling thread may run on, in ascending order; empty if
/// the mask cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, correctly sized cpu_set_t buffer for the
    // duration of the call; pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
    if !ok {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| t.lines().next().map(|l| l.trim().to_owned()))
        .unwrap_or_default()
}

/// Wall time of `n` loopback connect+accept pairs, ms.
fn loopback_connects_ms(n: usize) -> Option<f64> {
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let started = Instant::now();
    for _ in 0..n {
        let _client = TcpStream::connect(addr).ok()?;
        let _server = listener.accept().ok()?;
    }
    Some(started.elapsed().as_secs_f64() * 1e3)
}

/// The host facts every report carries.
pub fn facts() -> serde_json::Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_owned()))
        })
        .unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_default();
    let tcp_wmem_max = first_line("/proc/sys/net/ipv4/tcp_wmem")
        .split_whitespace()
        .last()
        .and_then(|v| v.parse::<u64>().ok());
    serde_json::json!({
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "kernel": first_line("/proc/sys/kernel/osrelease"),
        "rustc": rustc,
        "tcp_wmem_max": tcp_wmem_max,
        "loopback_100_connects_ms": loopback_connects_ms(100),
    })
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Pins the calling thread, and the threads and processes it starts
/// afterwards, to `cpus`. Best effort: returns whether it took.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &c in cpus {
        if c < 1024 {
            mask[c / 64] |= 1 << (c % 64);
        }
    }
    // SAFETY: `mask` is a live, correctly sized cpu_set_t buffer for the
    // duration of the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

//! Process and host readings: resource usage, peak RSS, steal time and the
//! host fingerprint printed with every run.

use std::path::Path;
use std::process::{Command, Stdio};

/// Process-wide resource usage (all threads, live and exited).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Involuntary context switches.
    pub nivcsw: u64,
}

impl Usage {
    /// `self - earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
            nivcsw: self.nivcsw.saturating_sub(earlier.nivcsw),
        }
    }

    /// CPU seconds, user plus system.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux (every `long` field is 64 bits).
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub ru_maxrss: i64,
        pub ru_ixrss: i64,
        pub ru_idrss: i64,
        pub ru_isrss: i64,
        pub ru_minflt: i64,
        pub ru_majflt: i64,
        pub ru_nswap: i64,
        pub ru_inblock: i64,
        pub ru_oublock: i64,
        pub ru_msgsnd: i64,
        pub ru_msgrcv: i64,
        pub ru_nsignals: i64,
        pub ru_nvcsw: i64,
        pub ru_nivcsw: i64,
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// This process's resource usage so far (zeros where unsupported).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut r = ffi::Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit Linux
    // layout declared above, and `getrusage` writes only within it.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut r) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &ffi::Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(&r.ru_utime),
        sys_s: secs(&r.ru_stime),
        minflt: r.ru_minflt.max(0) as u64,
        nivcsw: r.ru_nivcsw.max(0) as u64,
    }
}

/// This process's resource usage so far (zeros where unsupported).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-wide steal ticks so far (the 8th value of `/proc/stat`'s `cpu`
/// line): time this VM's vCPUs wanted to run but the hypervisor ran
/// something else.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Available CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// `git describe` of the repository holding `root`, or `"none"` when `root`
/// is not a git checkout (git is kept from searching above `root`).
fn git_describe(root: &Path) -> String {
    let ceiling = root.parent().unwrap_or(root);
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["describe", "--always", "--dirty", "--tags"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

fn json_str(s: &str) -> String {
    hammervolt_serve::api::json_escape(s)
}

/// The host fingerprint as one JSON object: CPUs, CPU model, kernel,
/// source revision, and steal ticks accrued between `steal_start` and now.
pub fn fingerprint(root: &Path, steal_start: Option<u64>) -> String {
    let steal = match (steal_start, steal_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "null".to_string(),
    };
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"git_describe\": \"{}\", \"steal_ticks\": {steal}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(&kernel()),
        json_str(&git_describe(root)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_advances_with_work() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let d = usage().since(&before);
        assert!(d.cpu_s() > 0.0, "{d:?}");
    }

    #[test]
    fn fingerprint_is_one_json_object() {
        let f = fingerprint(Path::new(env!("CARGO_MANIFEST_DIR")), steal_ticks());
        assert!(f.starts_with("{\"nproc\": ") && f.ends_with('}'), "{f}");
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}

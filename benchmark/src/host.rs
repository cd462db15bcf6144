//! What the run says about where it ran, and what the process used.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Header lines: enough to tell two runs on different hosts or builds
/// apart before comparing their numbers.
pub fn describe() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc", nproc.to_string()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("profile", profile.to_string()),
        ("rustc", command_line("rustc", &["-V"])),
        ("loadavg_1m", load),
    ]
}

/// Linux reports process CPU time in ticks of 1/100 s.
const TICKS_PER_SECOND: f64 = 100.0;

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessUsage {
    /// User plus system CPU seconds of every thread of this process.
    pub cpu_s: f64,
}

impl ProcessUsage {
    pub fn now() -> Self {
        // Fields 14 and 15 of /proc/self/stat, counted after the
        // parenthesised command name (which may itself hold spaces).
        let cpu_s = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                let rest = stat.rsplit_once(')')?.1.to_string();
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let utime: f64 = fields.get(11)?.parse().ok()?;
                let stime: f64 = fields.get(12)?.parse().ok()?;
                Some((utime + stime) / TICKS_PER_SECOND)
            })
            .unwrap_or(0.0);
        ProcessUsage { cpu_s }
    }

    pub fn since(&self, earlier: &ProcessUsage) -> ProcessUsage {
        ProcessUsage {
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }

    /// Peak resident set of the process so far, in MiB.
    pub fn peak_rss_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_reported() {
        let before = ProcessUsage::now();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = ProcessUsage::now().since(&before);
        assert!(used.cpu_s >= 0.03, "{used:?}");
        assert!(ProcessUsage::peak_rss_mb() > 1.0);
        assert!(describe().iter().any(|(k, v)| *k == "nproc" && v != "0"));
    }
}

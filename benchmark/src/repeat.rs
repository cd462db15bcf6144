//! The repeat check: two sets of three untraced runs of this same build
//! on every workload.  A benchmark whose own two sets disagree by more
//! than a metric's bound cannot tell a regression from noise on this
//! host, so the check fails.

use std::process::{Command, Stdio};

use crate::metrics::END_TO_END;
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

const SETS: usize = 2;
const RUNS_PER_SET: usize = 3;

/// The value of `name` in a result line printed by this program.
pub fn metric_in(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() {
        return Err(format!("run exited with {}: {last}", out.status));
    }
    Ok(last)
}

/// How much worse `second` is than `first`, as a share of `first`.
pub fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let delta = if better == "higher" {
        first - second
    } else {
        second - first
    };
    delta / first.abs()
}

pub fn check(seconds: u64) -> bool {
    println!(
        "# repeat check: {SETS} sets x {RUNS_PER_SET} runs x {} workloads, {seconds} s each",
        WORKLOADS.len()
    );
    println!("| workload | metric | set 1 median | set 2 median | worse by | spread of all runs | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for workload in &WORKLOADS {
        // sets[set][metric] = that set's runs.
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; SETS];
        for per_metric in sets.iter_mut() {
            for run in 0..RUNS_PER_SET {
                match one_run(workload.name, run as u64 + 1, seconds) {
                    Ok(line) => {
                        for (m, (name, ..)) in END_TO_END.iter().enumerate() {
                            match metric_in(&line, name) {
                                Some(v) => per_metric[m].push(v),
                                None => {
                                    println!("| {} | {name} | missing from a result line | | | | | FAIL |", workload.name);
                                    ok = false;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        println!("| {} | - | {e} | | | | | FAIL |", workload.name);
                        ok = false;
                    }
                }
            }
        }
        for (m, (name, _, better, bound)) in END_TO_END.iter().enumerate() {
            if sets.iter().any(|set| set[m].len() < RUNS_PER_SET) {
                continue;
            }
            let (first, second) = (median(&sets[0][m]), median(&sets[1][m]));
            // Either set may be the "parent": neither may look worse
            // than the other by more than the bound.
            let worse = worsening(first, second, better).max(worsening(second, first, better));
            let all: Vec<f64> = sets.iter().flat_map(|set| &set[m]).copied().collect();
            let pass = worse <= *bound;
            ok &= pass;
            println!(
                "| {} | {name} | {first:.4} | {second:.4} | {:.2} % | {:.2} % | {:.0} % | {} |",
                workload.name,
                worse * 100.0,
                spread(&all) * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    println!("# repeat check {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_read_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 44.125, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}";
        assert_eq!(metric_in(line, "latency_p50_ms"), Some(44.125));
        assert_eq!(metric_in(line, "setup_s"), Some(0.5));
        assert_eq!(metric_in(line, "latency_p95_ms"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }
}

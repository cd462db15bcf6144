//! The repo benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --repeat-check
//! ```
//!
//! Everything here calls the program through its public API and times it
//! from outside; see `README.md` beside this crate for what is measured
//! and why.

mod host;
mod layers;
mod metrics;
mod openloop;
mod oracle;
mod queries;
mod repeat;
mod span;
mod stack;
mod stats;
mod util;
mod workloads;

use std::fmt::Write as _;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use util::{json_string, valid_name};
use workloads::{Metric, RunOutput, Spec, WORKLOADS};

const USAGE: &str = "usage: rqo-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
       rqo-benchmark --repeat-check [--seconds N]
       rqo-benchmark --print-benchmark-json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat_check: bool,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        repeat_check: false,
        print_benchmark_json: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--repeat-check" => args.repeat_check = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                i += 1;
                let value = argv.get(i).ok_or(format!("missing value after {flag}"))?;
                let number = || {
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
                };
                match flag {
                    "--workload" => args.workload = Some(value.clone()),
                    "--seed" => args.seed = number()?,
                    "--seconds" => args.seconds = number()?.max(1),
                    _ => args.trace = number()? != 0,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

/// `BENCHMARK.json`, generated so the file cannot drift from the code.
fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_string(w.name),
            json_string(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}{comma}",
            json_string(name),
            json_string(unit),
            json_string(better)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_string(name),
            json_string(unit),
            json_string(better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Start-up check of every name a later issue may quote.
fn validate_names() -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0));
    for name in names {
        if !valid_name(name) {
            return Err(format!("name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} is used twice"));
        }
    }
    Ok(())
}

/// The reported metrics must be exactly the declared ones, in units as
/// declared, and finite.
fn check_against_declared(reported: &[Metric], declared: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in declared {
        match reported
            .iter()
            .filter(|m| m.0 == *name)
            .collect::<Vec<_>>()
            .as_slice()
        {
            [m] if m.2 != *unit => {
                problems.push(format!("{name} reported in {} but declared in {unit}", m.2))
            }
            [m] if !m.1.is_finite() => problems.push(format!("{name} is not a finite number")),
            [_] => {}
            [] => problems.push(format!("{name} is declared but was not reported")),
            _ => problems.push(format!("{name} was reported more than once")),
        }
    }
    for m in reported {
        if !declared.iter().any(|(name, _)| *name == m.0) {
            problems.push(format!("{} was reported but is not declared", m.0));
        }
    }
    problems
}

fn result_line(output: &RunOutput, metrics: &[Metric], correct: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        output.attempted.max(1),
        output.failed,
        body.join(", ")
    )
}

/// Where span files go: `benchmark/out` of the checkout the run was
/// started in, else of the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Runs one workload and prints its report; the last line printed is the
/// result object.  Returns whether every check passed.
fn run_workload(spec: &Spec, args: &Args) -> bool {
    println!(
        "# workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("#   {}", spec.why);
    let mut output = workloads::run(spec, args.seed, args.seconds, args.trace);

    let (metrics, declared): (&[Metric], Vec<(&str, &str)>) = if args.trace {
        (
            &output.per_layer,
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect(),
        )
    } else {
        (
            &output.end_to_end,
            END_TO_END.iter().map(|m| (m.0, m.1)).collect(),
        )
    };
    let problems = check_against_declared(metrics, &declared);
    output.attempted += 1;
    if !problems.is_empty() {
        output.failed += 1;
        output.failures.extend(problems);
    }

    if args.trace {
        for (name, value, unit) in &output.end_to_end {
            println!("# (traced) {name:<30} {value:>16.6} {unit}");
        }
    }
    for (name, value, unit) in metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    for note in &output.notes {
        println!("# {note}");
    }
    if let Some(spans) = &output.spans {
        let path = out_dir().join(format!("{}.spans.jsonl", spec.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut w = BufWriter::new(file);
                spans.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => {
                output.failed += 1;
                output
                    .failures
                    .push(format!("writing {}: {e}", path.display()));
            }
        }
    }
    for failure in &output.failures {
        println!("# FAILED: {failure}");
    }
    let correct = output.failed == 0;
    println!(
        "# fail_frac {} ({} of {} checks and requests)",
        output.failed as f64 / output.attempted.max(1) as f64,
        output.failed,
        output.attempted
    );
    println!("{}", result_line(&output, metrics, correct));
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = validate_names() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.repeat_check {
        return if repeat::check(args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let selected: Vec<&Spec> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(spec) => vec![spec],
            None => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name:?}; known: {}", known.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    for (key, value) in host::describe() {
        println!("# {key}: {value}");
    }
    let mut all_correct = true;
    for spec in selected {
        all_correct &= run_workload(spec, &args);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        validate_names().unwrap();
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let generated = benchmark_json();
        let differing = committed
            .lines()
            .zip(generated.lines())
            .find(|(c, g)| c != g);
        assert_eq!(differing, None, "regenerate with --print-benchmark-json");
        assert_eq!(
            committed.len(),
            generated.len(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    fn arguments_parse_in_the_contract_form() {
        let argv: Vec<String> = "--workload net_point --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("net_point"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3, true));
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string(), "x".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn undeclared_missing_and_mislabelled_metrics_are_caught() {
        let declared = [("a", "ms"), ("b", "s")];
        assert!(check_against_declared(&[("a", 1.0, "ms"), ("b", 2.0, "s")], &declared).is_empty());
        assert_eq!(
            check_against_declared(&[("a", 1.0, "ms")], &declared).len(),
            1
        );
        assert_eq!(
            check_against_declared(&[("a", 1.0, "us"), ("b", 2.0, "s")], &declared).len(),
            1
        );
        assert_eq!(
            check_against_declared(
                &[("a", 1.0, "ms"), ("b", 2.0, "s"), ("c", 0.0, "s")],
                &declared
            )
            .len(),
            1
        );
        assert_eq!(
            check_against_declared(&[("a", f64::NAN, "ms"), ("b", 2.0, "s")], &declared).len(),
            1
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let output = RunOutput {
            end_to_end: vec![("latency_p50_ms", 1.25, "ms")],
            per_layer: Vec::new(),
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            spans: None,
        };
        assert_eq!(
            result_line(&output, &output.end_to_end, true),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}

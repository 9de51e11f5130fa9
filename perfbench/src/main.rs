//! `vampos-perfbench`: the host-cost benchmark of the VampOS-RS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-n16|fleet-n256|fleet-n16-traced|mesh-rolling \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload single-threaded for `--seconds` of host time, checks
//! its simulated outcome, prints every metric by name and unit, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics from untraced repetitions;
//! `--trace 1` reports the per-layer metrics from a traced run and writes
//! its spans to `.bench_out/<workload>.spans.tsv`. `--quick` runs the
//! small test size instead of the reported one. Exit codes: 0 success,
//! 1 a failed check or simulated failure, 2 usage error.
//!
//! Every repetition runs in a child process started as
//! `vampos-perfbench --rep untraced|traced|telemetry-off --workload W
//! --seed N`; see [`child`].

mod alloc;
mod child;
mod layers;
mod measure;
mod outcome;
mod probes;
mod spans;
mod stats;
mod stepwise;
#[cfg(test)]
mod tests;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use child::RepKind;
use measure::Measurement;
use workload::{Scale, Spec, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Directory (relative to the working directory) the traced run writes
/// its spans to.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    rep: Option<RepKind>,
}

fn usage() -> String {
    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: vampos-perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1] [--quick]\n",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::FleetN16,
        seed: outcome::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        scale: Scale::Full,
        rep: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.scale = Scale::Quick,
            "--rep" => {
                let name = value()?;
                args.rep = Some(
                    RepKind::from_name(name)
                        .ok_or_else(|| format!("unknown repetition kind {name:?}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON; non-finite values (a benchmark bug) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_line(m: &Measurement) -> String {
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&x.name),
                json_number(x.value),
                json_string(&x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct,
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}

/// Writes the traced repetition's spans under [`OUT_DIR`].
fn write_spans(workload: Workload, tsv: &str) -> std::io::Result<String> {
    let path = Path::new(OUT_DIR).join(format!("{}.spans.tsv", workload.name()));
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(&path, tsv)?;
    Ok(path.display().to_string())
}

/// Child mode: one repetition, reported as `METRIC` lines and a final
/// `REP` line.
fn run_child(kind: RepKind, spec: &Spec) -> ExitCode {
    let out = match child::run(kind, spec) {
        Ok(out) => out,
        Err(e) => {
            eprintln!(
                "vampos-perfbench: {} {} repetition: simulated failure: {e}",
                spec.workload.name(),
                kind.name()
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(tsv) = &out.spans_tsv {
        match write_spans(spec.workload, tsv) {
            Ok(path) => println!("spans written: {path}"),
            Err(e) => {
                eprintln!("vampos-perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", out.detail);
    for problem in &out.problems {
        eprintln!(
            "vampos-perfbench: {}: CHECK FAILED: {problem}",
            spec.workload.name()
        );
    }
    for m in &out.metrics {
        println!("{}", m.render());
    }
    println!("{}", out.rep.render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("vampos-perfbench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = Spec {
        workload: args.workload,
        scale: args.scale,
        seed: args.seed,
    };
    if let Some(kind) = args.rep {
        return run_child(kind, &spec);
    }
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {host_cores}, \"profile\": {}, \"commit\": {}}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(profile),
        json_string(&commit()),
    );
    let budget = Duration::from_secs(args.seconds);
    let measured = if args.trace {
        measure::traced(&spec, budget)
    } else {
        measure::untraced(&spec, budget)
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("vampos-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", m.detail);
    for x in &m.metrics {
        println!("{:<36} {:>18.6} {}", x.name, x.value, x.unit);
    }
    for problem in &m.problems {
        eprintln!(
            "vampos-perfbench: {}: CHECK FAILED: {problem}",
            args.workload.name()
        );
    }
    println!("{}", result_line(&m));
    if m.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

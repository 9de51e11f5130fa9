//! The two kinds of benchmark run, driven from the parent process: the
//! untraced run gives the end-to-end metrics, the traced run the
//! per-layer ones. Every repetition runs in a child process
//! ([`crate::child`]); the parent spawns them one at a time, waits for
//! each, checks that they agree, and reports medians.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::child::{ChildOutput, Metric, RepKind, RepLine};
use crate::probes::{self, Probes, MODES};
use crate::spans::Tracer;
use crate::stats::{median, ratio, Samples};
use crate::workload::{Scale, Spec};

/// Fewest untraced repetitions a run makes, however short its budget.
pub const MIN_REPETITIONS: usize = 3;

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Every check passed.
    pub correct: bool,
    /// Simulated operations attempted, over every repetition.
    pub attempted: u64,
    /// Operations of repetitions that failed a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Every failed check, for the log.
    pub problems: Vec<String>,
    /// Human-readable detail printed before the result.
    pub detail: String,
}

impl Measurement {
    fn push(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Books one repetition: its operations, its own failed checks, and
    /// whether it reproduced `first` (same outcome, same report).
    fn book(&mut self, spec: &Spec, rep: &RepLine, first: Option<&RepLine>) {
        let mut bad = rep.bad > 0;
        if let Some(first) = first {
            if rep.outcome != first.outcome || rep.digest != first.digest {
                bad = true;
                self.problems.push(format!(
                    "repetition differs from the first: outcome {} digest {} vs outcome {} digest {}",
                    rep.outcome, rep.digest, first.outcome, first.digest
                ));
            }
        }
        self.attempted += spec.ops();
        if bad {
            self.failed += spec.ops();
        }
    }
}

/// Runs one repetition of `kind` in a child process and waits for it.
fn spawn(kind: RepKind, spec: &Spec) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", kind.name(), "--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()]);
    if spec.scale == Scale::Quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a {} repetition: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!(
            "the {} repetition exited with {}",
            kind.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut child = ChildOutput::default();
    let mut rep = None;
    for line in stdout.lines() {
        if let Some(r) = RepLine::parse(line) {
            rep = Some(r);
        } else if let Some(m) = Metric::parse(line) {
            child.metrics.push(m);
        } else {
            child.detail.push_str(line);
            child.detail.push('\n');
        }
    }
    child.rep = rep.ok_or_else(|| format!("the {} repetition printed no REP line", kind.name()))?;
    Ok(child)
}

/// Untraced repetitions through [`vampos_cluster::Fleet::run`] /
/// [`vampos_mesh::Mesh::run`] for `budget`, reporting medians.
///
/// # Errors
///
/// A repetition that could not run (a simulated failure, a crash).
pub fn untraced(spec: &Spec, budget: Duration) -> Result<Measurement, String> {
    let mut m = Measurement::default();
    let start = Instant::now();
    let mut reps: Vec<RepLine> = Vec::new();
    let mut last = Duration::ZERO;
    // Stop before a repetition that would overrun the budget, so a run
    // lasts about `budget` whatever one repetition costs.
    while reps.len() < MIN_REPETITIONS || start.elapsed() + last <= budget {
        let began = Instant::now();
        let rep = spawn(RepKind::Untraced, spec)?.rep;
        last = began.elapsed();
        m.book(spec, &rep, reps.first());
        reps.push(rep);
    }
    let col = |f: &dyn Fn(&RepLine) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let not_ok: u64 = reps.iter().map(|r| r.not_ok).sum();
    m.correct = m.failed == 0;
    m.push("setup_s", "s", median(&col(&|r| r.setup_s)));
    m.push(
        "sim_ops_per_host_s",
        "1/s",
        median(&col(&|r| spec.ops() as f64 / r.run_s)),
    );
    m.push("wall_s", "s", median(&col(&RepLine::wall_s)));
    m.push("peak_rss_mb", "MB", median(&col(&|r| r.rss_mb)));
    m.push(
        "ok_ratio",
        "ratio",
        1.0 - ratio(not_ok as f64, m.attempted as f64),
    );
    let mut detail = format!(
        "repetitions: {}\noutcome: {}\n",
        reps.len(),
        reps[0].outcome
    );
    detail.push_str("rep     setup_s       run_s    export_s   rss_mb\n");
    for (i, r) in reps.iter().enumerate() {
        detail.push_str(&format!(
            "{i:>3} {:>11.6} {:>11.6} {:>11.6} {:>8.1}\n",
            r.setup_s, r.run_s, r.export_s, r.rss_mb
        ));
    }
    m.detail = detail;
    Ok(m)
}

/// The traced run: the probes, then cycles of an untraced reference
/// repetition and a traced repetition, for `budget` (at least one cycle).
/// The traced repetition must reproduce the reference's report exactly.
/// Where the workload has a telemetry companion, each cycle also runs the
/// companion's reference, traced and telemetry-off repetitions, and the
/// `telemetry.*` metrics come from the companion.
///
/// # Errors
///
/// A probe or repetition that could not run.
pub fn traced(spec: &Spec, budget: Duration) -> Result<Measurement, String> {
    let mut m = Measurement::default();
    let start = Instant::now();
    let mut probe_tracer = Tracer::new();
    let probes = probes::run(spec.seed, &mut probe_tracer).map_err(|e| format!("probe: {e}"))?;

    let companion = spec
        .workload
        .telemetry_companion()
        .map(|workload| Spec { workload, ..*spec });
    let mut trace_overhead = Vec::new();
    let mut telemetry_overhead = Vec::new();
    let mut layer_runs: Vec<Vec<Metric>> = Vec::new();
    let mut telemetry_runs: Vec<Vec<Metric>> = Vec::new();
    let mut first: Option<RepLine> = None;
    let mut companion_first: Option<RepLine> = None;
    let mut counters: Option<u64> = None;
    let mut not_ok = 0;
    let mut last_detail = String::new();
    let mut last = Duration::ZERO;
    while layer_runs.is_empty() || start.elapsed() + last <= budget {
        let began = Instant::now();
        let reference = spawn(RepKind::Untraced, spec)?.rep;
        m.book(spec, &reference, first.as_ref());
        let first = first.get_or_insert(reference.clone());
        let traced = spawn(RepKind::Traced, spec)?;
        m.book(spec, &traced.rep, Some(&*first));
        if *counters.get_or_insert(traced.rep.counters) != traced.rep.counters {
            m.failed += spec.ops();
            m.problems
                .push("per-layer counters differ between traced repetitions".to_owned());
        }
        not_ok += traced.rep.not_ok;
        trace_overhead.push(traced.rep.run_s / reference.run_s);
        if let Some(ts) = &companion {
            let (t_reference, t_metrics) = if ts == spec {
                (reference.clone(), traced.metrics.clone())
            } else {
                let r = spawn(RepKind::Untraced, ts)?.rep;
                m.book(ts, &r, companion_first.as_ref());
                let cf = companion_first.get_or_insert(r.clone());
                let t = spawn(RepKind::Traced, ts)?;
                m.book(ts, &t.rep, Some(&*cf));
                (r, t.metrics)
            };
            let off = spawn(RepKind::TelemetryOff, ts)?.rep;
            if off.digest != t_reference.digest {
                m.failed += ts.ops();
                m.problems
                    .push("telemetry changed the simulated run's report".to_owned());
            }
            telemetry_overhead.push(t_reference.run_s / off.run_s);
            telemetry_runs.push(t_metrics);
        }
        layer_runs.push(traced.metrics);
        last_detail = traced.detail;
        last = began.elapsed();
    }
    m.correct = m.failed == 0;
    // Each per-layer metric is the median over the traced repetitions
    // (the companion's, for telemetry); the counts among them are
    // identical in every repetition. Every traced child prints the same
    // metric list, so the lists align by index.
    for (i, metric) in layer_runs[0].iter().enumerate() {
        let runs = if metric.name.starts_with("telemetry.") && !telemetry_runs.is_empty() {
            &telemetry_runs
        } else {
            &layer_runs
        };
        let values: Vec<f64> = runs.iter().map(|run| run[i].value).collect();
        m.push(metric.name.clone(), &metric.unit, median(&values));
    }
    push_probes(&mut m, &probes);
    m.push(
        "telemetry.run_overhead_x",
        "ratio",
        median(&telemetry_overhead),
    );
    m.push("bench.trace_overhead_x", "ratio", median(&trace_overhead));
    m.push(
        "fail_ratio",
        "ratio",
        ratio(not_ok as f64, (layer_runs.len() as u64 * spec.ops()) as f64),
    );
    m.detail = format!(
        "traced repetitions: {}\n{}{}",
        layer_runs.len(),
        probe_tracer.render_summary(),
        last_detail
    );
    Ok(m)
}

fn push_samples(m: &mut Measurement, name: &str, s: &Samples) {
    m.push(format!("{name}.p50"), "ns", s.percentile(50.0) as f64);
    m.push(format!("{name}.p99"), "ns", s.percentile(99.0) as f64);
    m.push(format!("{name}.n"), "count", s.len() as f64);
}

fn push_probes(m: &mut Measurement, p: &Probes) {
    for (i, mode) in MODES.iter().enumerate() {
        push_samples(m, &format!("core.getpid_ns.{mode}"), &p.getpid[i]);
    }
    m.push("core.getpid_allocs.das", "count", p.getpid_allocs_das);
    for (i, mode) in MODES.iter().enumerate() {
        push_samples(m, &format!("oslib.open_close_ns.{mode}"), &p.open_close[i]);
    }
    for (i, mode) in MODES.iter().enumerate() {
        push_samples(m, &format!("oslib.pread_4k_ns.{mode}"), &p.pread_4k[i]);
    }
    push_samples(m, "core.reboot_9pfs_ns", &p.reboot_9pfs);
    push_samples(m, "apps.http_get_ns", &p.http_get);
    m.push("apps.http_get_allocs", "count", p.http_get_allocs);
}

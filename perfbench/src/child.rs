//! One repetition, run inside its own child process.
//!
//! Each repetition gets a fresh process so it starts from the same state a
//! CLI user's process does: an empty heap whose zero-filled pages are
//! untouched until used. Reusing one process would let a later
//! repetition's zeroed allocations land on freed memory that must be
//! cleared by hand, which inflates both its host time and its resident
//! set. The child prints its numbers as `REP`/`METRIC` lines that the
//! parent ([`crate::measure`]) parses.

use std::time::Instant;

use vampos_cluster::{Fleet, FleetConfig, Policy};
use vampos_core::{Mode, System};
use vampos_ukernel::OsError;

use crate::alloc;
use crate::layers::LayerCounts;
use crate::outcome::{self, Outcome};
use crate::spans::Tracer;
use crate::stats::ratio;
use crate::stepwise::{self, StepStats};
use crate::workload::{debug_digest, export_all, repetition, RunReport, Spec, Sut};

/// Every `LOSS_STRIDE`-th acked mesh journey has its durable writes
/// checked after the run.
const LOSS_STRIDE: usize = 64;

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// Boot, run through the program's own loop, export.
    Untraced,
    /// Boot and run with the benchmark's spans and counters.
    Traced,
    /// `Fleet::run` with telemetry forced off (the telemetry overhead
    /// baseline of the traced workload).
    TelemetryOff,
}

impl RepKind {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            RepKind::Untraced => "untraced",
            RepKind::Traced => "traced",
            RepKind::TelemetryOff => "telemetry-off",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<RepKind> {
        [RepKind::Untraced, RepKind::Traced, RepKind::TelemetryOff]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            value,
        }
    }

    /// The `METRIC name value unit` line a child prints.
    pub fn render(&self) -> String {
        format!("METRIC {} {} {}", self.name, self.value, self.unit)
    }

    /// Parses a `METRIC` line.
    pub fn parse(line: &str) -> Option<Metric> {
        let mut it = line.strip_prefix("METRIC ")?.split(' ');
        let name = it.next()?;
        let value = it.next()?.parse().ok()?;
        let unit = it.next()?;
        Some(Metric::new(name, unit, value))
    }
}

/// The summary line of one repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepLine {
    /// Boot host time, seconds.
    pub setup_s: f64,
    /// Run-phase host time, seconds.
    pub run_s: f64,
    /// Export host time, seconds.
    pub export_s: f64,
    /// The child's resident-set high-water, megabytes.
    pub rss_mb: f64,
    /// Simulated operations not ok or not acked.
    pub not_ok: u64,
    /// Failed checks.
    pub bad: u64,
    /// Digest of the whole run report.
    pub digest: u64,
    /// Digest of the per-layer counters (traced repetitions only).
    pub counters: u64,
    /// The outcome, `name=value` pairs joined by commas.
    pub outcome: String,
}

impl RepLine {
    /// What a CLI user waits for: setup, run and export.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s + self.export_s
    }

    /// The `REP key=value ...` line a child prints last.
    pub fn render(&self) -> String {
        format!(
            "REP setup_s={} run_s={} export_s={} rss_mb={} not_ok={} bad={} digest={} \
             counters={} outcome={}",
            self.setup_s,
            self.run_s,
            self.export_s,
            self.rss_mb,
            self.not_ok,
            self.bad,
            self.digest,
            self.counters,
            self.outcome
        )
    }

    /// Parses a `REP` line; `None` if any field is missing or malformed.
    pub fn parse(line: &str) -> Option<RepLine> {
        let mut r = RepLine::default();
        let mut seen = 0;
        for pair in line.strip_prefix("REP ")?.split(' ') {
            let (k, v) = pair.split_once('=')?;
            match k {
                "setup_s" => r.setup_s = v.parse().ok()?,
                "run_s" => r.run_s = v.parse().ok()?,
                "export_s" => r.export_s = v.parse().ok()?,
                "rss_mb" => r.rss_mb = v.parse().ok()?,
                "not_ok" => r.not_ok = v.parse().ok()?,
                "bad" => r.bad = v.parse().ok()?,
                "digest" => r.digest = v.parse().ok()?,
                "counters" => r.counters = v.parse().ok()?,
                "outcome" => r.outcome = v.to_owned(),
                _ => return None,
            }
            seen += 1;
        }
        (seen == 9).then_some(r)
    }
}

/// Everything one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct ChildOutput {
    /// The summary line.
    pub rep: RepLine,
    /// Per-layer metrics (traced repetitions only).
    pub metrics: Vec<Metric>,
    /// Every failed check.
    pub problems: Vec<String>,
    /// Human-readable detail (the span table).
    pub detail: String,
    /// Every span, as TSV (traced repetitions only).
    pub spans_tsv: Option<String>,
}

/// Components one `rejuvenate_all` reboots on a fleet instance: the
/// per-instance reboot count the invariants expect.
///
/// # Errors
///
/// Propagates boot or reboot failures.
pub fn rejuvenated_per_instance(seed: u64) -> Result<u64, OsError> {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(FleetConfig::default().set)
        .seed(seed)
        .build()?;
    Ok(sys.rejuvenate_all()?.len() as u64)
}

/// Simulated operations the report counts as not ok (fleet: recorded
/// requests that failed, retried ones included; mesh: journeys not acked).
pub fn not_ok(report: &RunReport) -> u64 {
    match report {
        RunReport::Fleet(r) => r.failures() as u64,
        RunReport::Mesh(r) => (r.journeys.len() - r.acked()) as u64,
    }
}

/// The process's resident-set high-water (VmHWM), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition of `kind`.
///
/// # Errors
///
/// Propagates simulated failures.
pub fn run(kind: RepKind, spec: &Spec) -> Result<ChildOutput, OsError> {
    match kind {
        RepKind::Untraced => untraced(spec),
        RepKind::Traced => traced(spec),
        RepKind::TelemetryOff => telemetry_off(spec),
    }
}

/// Invariant and pinned-outcome checks, plus the mesh's sampled
/// no-acknowledged-loss check.
fn checks(
    spec: &Spec,
    o: &Outcome,
    sut: &mut Sut,
    report: &RunReport,
) -> Result<Vec<String>, OsError> {
    let mut bad = outcome::check(spec, o, rejuvenated_per_instance(spec.seed)?);
    bad.extend(
        sut.lost_acked_writes(report, LOSS_STRIDE)
            .into_iter()
            .map(|j| format!("acked journey {j} lost a durable write")),
    );
    Ok(bad)
}

fn untraced(spec: &Spec) -> Result<ChildOutput, OsError> {
    let mut rep = repetition(spec)?;
    // Read before the checks, which boot and query systems of their own.
    let rss_mb = peak_rss_mb();
    let (_, evicted) = rep.sut.telemetry_spans();
    let o = Outcome::of(&rep.report, rep.exports.as_ref(), evicted);
    let problems = checks(spec, &o, &mut rep.sut, &rep.report)?;
    Ok(ChildOutput {
        rep: RepLine {
            setup_s: rep.times.setup_s,
            run_s: rep.times.run_s,
            export_s: rep.times.export_s,
            rss_mb,
            not_ok: not_ok(&rep.report),
            bad: problems.len() as u64,
            digest: debug_digest(&rep.report),
            counters: 0,
            outcome: o.render(),
        },
        problems,
        ..ChildOutput::default()
    })
}

fn telemetry_off(spec: &Spec) -> Result<ChildOutput, OsError> {
    let mut fleet = Fleet::new(spec.fleet_config_with_telemetry(false))?;
    let t0 = Instant::now();
    let report = fleet.run(&spec.load(), Policy::RecoveryAware, spec.fleet_plan())?;
    let run_s = t0.elapsed().as_secs_f64();
    let report = RunReport::Fleet(report);
    Ok(ChildOutput {
        rep: RepLine {
            run_s,
            rss_mb: peak_rss_mb(),
            not_ok: not_ok(&report),
            digest: debug_digest(&report),
            outcome: "telemetry-off".to_owned(),
            ..RepLine::default()
        },
        ..ChildOutput::default()
    })
}

/// Boots and runs `spec` with the benchmark's spans: the step-wise drive loop
/// for fleets, one span around [`vampos_mesh::Mesh::run`] for the mesh,
/// then the exports. Reports the per-layer metrics this process can see;
/// the parent adds the probes and the cross-repetition ratios.
fn traced(spec: &Spec) -> Result<ChildOutput, OsError> {
    let mut tr = Tracer::new();
    tr.begin("bench.repetition");
    let live0 = alloc::live_bytes();
    alloc::reset_peak();
    tr.begin("setup.boot");
    let booted = spec.boot();
    let setup_ns = tr.end().ns;
    let mut sut = booted?;
    let boot_live_bytes = alloc::live_bytes().saturating_sub(live0);
    let systems = sut.systems();
    let before = LayerCounts::of(&systems);
    let n_systems = systems.len() as f64;
    tr.begin("bench.run");
    let run = if let Sut::Fleet(fleet) = &mut sut {
        stepwise::run(fleet, spec, &mut tr).map(|(r, st)| (RunReport::Fleet(r), st))
    } else {
        tr.span("mesh.run", || sut.run(spec))
            .map(|r| (r, StepStats::default()))
    };
    let run_ns = tr.end().ns;
    let (report, step) = run?;
    let c = LayerCounts::of(&sut.systems()).since(&before);
    tr.begin("bench.export");
    let exports = spec
        .workload
        .telemetry()
        .then(|| export_all(sut.fleet(), &mut tr));
    let export_ns = tr.end().ns;
    tr.end();
    let live_peak_bytes = alloc::peak_bytes().saturating_sub(live0);
    let (telemetry_spans, evicted) = sut.telemetry_spans();
    let o = Outcome::of(&report, exports.as_ref(), evicted);
    let problems = checks(spec, &o, &mut sut, &report)?;

    let ops = spec.ops() as f64;
    let per_op = |v: u64| v as f64 / ops;
    let by_name = tr.by_name();
    let self_ns = |name: &str| by_name.get(name).map_or(0, |s| s.self_ns);
    let total_ns = |name: &str| by_name.get(name).map_or(0, |s| s.total_ns);
    let mut m = Vec::new();
    let mut push = |name: &str, unit: &str, value: f64| m.push(Metric::new(name, unit, value));

    push("core.msg_hops_per_op", "count", per_op(c.msg_hops));
    push("core.mpk_switches_per_op", "count", per_op(c.mpk_switches));
    push("core.ctx_switches_per_op", "count", per_op(c.ctx_switches));
    push("core.log_appended_per_op", "count", per_op(c.log_appended));
    push("core.replayed_entries", "count", c.replayed_entries as f64);
    push(
        "core.component_reboots",
        "count",
        c.component_reboots as f64,
    );
    push("core.recovered_calls", "count", c.recovered_calls as f64);

    push(
        "cluster.dispatch_ns.p50",
        "ns",
        step.dispatch.percentile(50.0) as f64,
    );
    push(
        "cluster.dispatch_ns.p99",
        "ns",
        step.dispatch.percentile(99.0) as f64,
    );
    push("cluster.dispatch_ns.n", "count", step.dispatch.len() as f64);
    push(
        "cluster.dispatch_allocs_per_op",
        "count",
        ratio(step.dispatch_allocs as f64, step.dispatch.len() as f64),
    );
    push(
        "cluster.heap_events_per_op",
        "count",
        per_op(step.heap_events),
    );
    push(
        "cluster.heap_ns_per_op",
        "ns",
        per_op(
            self_ns("cluster.heap_seed")
                + self_ns("cluster.heap_pop")
                + self_ns("cluster.heap_push"),
        ),
    );
    push("cluster.fire_op_ns.total", "ns", step.fire_op_ns as f64);
    push("cluster.plan_ops", "count", step.plan_ops as f64);
    let front = match &report {
        RunReport::Fleet(r) => r,
        RunReport::Mesh(r) => &r.front,
    };
    push("cluster.retried", "count", front.retried as f64);
    push("cluster.redirects", "count", front.redirects as f64);
    push(
        "cluster.ok_per_issued",
        "ratio",
        ratio(front.successes() as f64, front.issued as f64),
    );

    push("host.ninep_rpcs_per_op", "count", per_op(c.ninep_rpcs));
    push("host.fsyncs_per_op", "count", per_op(c.fsyncs));
    push("host.guest_frames_per_op", "count", per_op(c.guest_frames));
    push("host.guest_bytes_per_op", "B", per_op(c.guest_bytes));

    push(
        "setup.boot_ns_per_instance",
        "ns",
        setup_ns as f64 / n_systems,
    );
    push(
        "setup.live_bytes_per_instance",
        "B",
        boot_live_bytes as f64 / n_systems,
    );
    push(
        "mem.live_peak_mb",
        "MB",
        live_peak_bytes as f64 / (1024.0 * 1024.0),
    );

    let (attempts, useful, hedges, cached) = match &report {
        RunReport::Mesh(r) => {
            let records = || r.stages.iter().flat_map(|s| &s.records);
            (
                records().map(|rec| u64::from(rec.attempts)).sum::<u64>(),
                records().filter(|rec| rec.ok).count() as u64,
                r.hedges,
                records().filter(|rec| rec.cached).count() as u64,
            )
        }
        RunReport::Fleet(_) => (0, 0, 0, 0),
    };
    push(
        "mesh.run_ns_per_journey",
        "ns",
        per_op(total_ns("mesh.run")),
    );
    push("mesh.attempts_per_journey", "count", per_op(attempts));
    push(
        "mesh.acked_per_attempt",
        "ratio",
        ratio(useful as f64, attempts as f64),
    );
    push("mesh.hedges", "count", hedges as f64);
    push("mesh.cached_replays", "count", cached as f64);

    push("telemetry.spans_per_op", "count", per_op(telemetry_spans));
    push("telemetry.evicted", "count", evicted as f64);
    push(
        "telemetry.perfetto_ns_per_op",
        "ns",
        per_op(total_ns("telemetry.perfetto")),
    );
    push(
        "telemetry.prometheus_ns",
        "ns",
        total_ns("telemetry.prometheus") as f64,
    );
    push(
        "telemetry.analyze_ns_per_op",
        "ns",
        per_op(total_ns("telemetry.analyze")),
    );
    push(
        "telemetry.trace_bytes_per_op",
        "B",
        per_op(exports.map_or(0, |e| e.perfetto_bytes)),
    );

    Ok(ChildOutput {
        rep: RepLine {
            setup_s: setup_ns as f64 / 1e9,
            run_s: run_ns as f64 / 1e9,
            export_s: export_ns as f64 / 1e9,
            rss_mb: peak_rss_mb(),
            not_ok: not_ok(&report),
            bad: problems.len() as u64,
            digest: debug_digest(&report),
            counters: debug_digest(&c),
            outcome: o.render(),
        },
        metrics: m,
        problems,
        detail: tr.render_summary(),
        spans_tsv: Some(tr.to_tsv()),
    })
}

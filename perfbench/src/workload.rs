//! The four benchmark workloads: how each one builds its simulated system
//! (setup), drives it (run), exports what a CLI user would ask for, and
//! what outcome it must produce.

use std::fmt::{self, Write as _};
use std::time::Instant;

use vampos_cluster::{Fleet, FleetConfig, FleetLoad, FleetPlan, FleetRunReport, Policy};
use vampos_core::System;
use vampos_mesh::{BackendOpKind, Mesh, MeshConfig, MeshPlan, MeshRunReport, MeshTopology};
use vampos_sim::Nanos;
use vampos_telemetry::{analyze, prometheus};
use vampos_ukernel::OsError;

use crate::spans::Tracer;

/// Rolling rejuvenation schedule of the `vampos-fleet --plan rolling`
/// reference run: one instance at a time, spaced wider than the ~48 ms
/// rejuvenation window, drained 8 ms ahead.
const ROLL_START: Nanos = Nanos::from_millis(20);
const ROLL_SPACING: Nanos = Nanos::from_millis(60);
const ROLL_DRAIN_LEAD: Nanos = Nanos::from_millis(8);

/// Service index of the pinned, AOF-durable KV store in the standard mesh
/// topology.
const SVC_KV: usize = 1;

/// Front instances and replicas per replicated service in the standard
/// mesh topology.
const MESH_FRONT: usize = 3;
const MESH_REPLICAS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// N=16 MiniHttpd fleet, telemetry off: the per-request call path.
    FleetN16,
    /// N=256 fleet: the same requests over 16x the instances.
    FleetN256,
    /// N=16 fleet with telemetry on, then the trace, metrics and analysis
    /// exports.
    FleetN16Traced,
    /// The standard mesh pipeline under a rolling front wave plus a KV
    /// rejuvenation.
    MeshRolling,
}

/// Every workload the binary runs. `BENCHMARK.json` lists `fleet-n16` and
/// `mesh-rolling`. `fleet-n16-traced`, whose run-to-run spread is too wide
/// for an end-to-end bound, runs inside `fleet-n16`'s traced run instead
/// (see [`Workload::telemetry_companion`]); `fleet-n256` runs on its own.
pub const ALL: [Workload; 4] = [
    Workload::FleetN16,
    Workload::FleetN256,
    Workload::FleetN16Traced,
    Workload::MeshRolling,
];

/// Run size: the benchmark's stated size, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark reports at.
    Full,
    /// A small size with the same shape, for the benchmark's own tests.
    Quick,
}

/// Instances, clients and requests per client of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Front-tier instances.
    pub instances: usize,
    /// Open-loop clients.
    pub clients: usize,
    /// Requests (fleet) or journeys (mesh) per client.
    pub requests: usize,
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetN16 => "fleet-n16",
            Workload::FleetN256 => "fleet-n256",
            Workload::FleetN16Traced => "fleet-n16-traced",
            Workload::MeshRolling => "mesh-rolling",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives a plain fleet (not the mesh).
    pub fn is_fleet(self) -> bool {
        self != Workload::MeshRolling
    }

    /// Whether the simulated system records telemetry.
    pub fn telemetry(self) -> bool {
        self == Workload::FleetN16Traced
    }

    /// The workload whose traced repetitions give this workload's
    /// `telemetry.*` per-layer metrics: `fleet-n16-traced` for itself and
    /// for `fleet-n16`, the same fleet with telemetry off.
    pub fn telemetry_companion(self) -> Option<Workload> {
        match self {
            Workload::FleetN16 | Workload::FleetN16Traced => Some(Workload::FleetN16Traced),
            Workload::FleetN256 | Workload::MeshRolling => None,
        }
    }

    /// The run size at `scale`.
    pub fn size(self, scale: Scale) -> Size {
        let (instances, clients, requests) = match (self, scale) {
            (Workload::FleetN16, Scale::Full) => (16, 64, 1024),
            (Workload::FleetN16, Scale::Quick) => (16, 64, 16),
            (Workload::FleetN256, Scale::Full) => (256, 1024, 64),
            (Workload::FleetN256, Scale::Quick) => (256, 1024, 1),
            (Workload::FleetN16Traced, Scale::Full) => (16, 64, 256),
            (Workload::FleetN16Traced, Scale::Quick) => (16, 64, 16),
            (Workload::MeshRolling, Scale::Full) => (MESH_FRONT, 4, 2048),
            (Workload::MeshRolling, Scale::Quick) => (MESH_FRONT, 4, 128),
        };
        Size {
            instances,
            clients,
            requests,
        }
    }
}

/// One concrete run: workload, size and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Its size.
    pub scale: Scale,
    /// The fleet seed (instance `i` boots with `derive_seed(seed, i)`).
    pub seed: u64,
}

impl Spec {
    /// The run size.
    pub fn size(&self) -> Size {
        self.workload.size(self.scale)
    }

    /// Simulated operations the run issues: HTTP requests for fleets,
    /// journeys for the mesh.
    pub fn ops(&self) -> u64 {
        let s = self.size();
        (s.clients * s.requests) as u64
    }

    /// The front fleet's configuration, with telemetry as the workload
    /// asks.
    pub fn fleet_config(&self) -> FleetConfig {
        self.fleet_config_with_telemetry(self.workload.telemetry())
    }

    /// The front fleet's configuration with telemetry forced on or off.
    pub fn fleet_config_with_telemetry(&self, telemetry: bool) -> FleetConfig {
        FleetConfig {
            instances: self.size().instances,
            seed: self.seed,
            telemetry,
            ..FleetConfig::default()
        }
    }

    /// The open-loop load: the fleet's fixed grid, 4 ms think, keepalive.
    pub fn load(&self) -> FleetLoad {
        let s = self.size();
        FleetLoad {
            clients: s.clients,
            requests_per_client: s.requests,
            ..FleetLoad::default()
        }
    }

    /// The fleet workloads' rolling rejuvenation plan.
    pub fn fleet_plan(&self) -> FleetPlan {
        FleetPlan::rolling_rejuvenation(
            self.size().instances,
            ROLL_START,
            ROLL_SPACING,
            ROLL_DRAIN_LEAD,
        )
    }

    /// The mesh configuration: standard topology, armed hop policies.
    pub fn mesh_config(&self) -> MeshConfig {
        MeshConfig {
            front: self.fleet_config(),
            topology: MeshTopology::standard(MESH_REPLICAS, true),
            ..MeshConfig::default()
        }
    }

    /// The `vampos-mesh --config rolling` plan scaled to the load's
    /// virtual span: a rolling front wave plus a KV rejuvenation.
    pub fn mesh_plan(&self) -> MeshPlan {
        let load = self.load();
        let span_ns = load.think_time.as_nanos() * load.requests_per_client as u64;
        let at = |num: u64, den: u64| Nanos::from_nanos(span_ns * num / den);
        let mut plan = MeshPlan::none();
        plan.front = FleetPlan::rolling_rejuvenation(MESH_FRONT, at(1, 8), at(1, 6), at(1, 24));
        plan.push_backend(at(2, 3), SVC_KV, 0, BackendOpKind::Rejuvenate);
        plan
    }

    /// Builds and boots the simulated system (the setup phase).
    ///
    /// # Errors
    ///
    /// Propagates boot failures.
    pub fn boot(&self) -> Result<Sut, OsError> {
        if self.workload.is_fleet() {
            Ok(Sut::Fleet(Fleet::new(self.fleet_config())?))
        } else {
            Ok(Sut::Mesh(Box::new(Mesh::new(self.mesh_config())?)))
        }
    }
}

/// A booted system under test.
pub enum Sut {
    /// A plain fleet.
    Fleet(Fleet),
    /// A mesh (front fleet plus backends).
    Mesh(Box<Mesh>),
}

/// The report of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunReport {
    /// From [`Fleet::run`] (or the step-wise drive loop).
    Fleet(FleetRunReport),
    /// From [`Mesh::run`].
    Mesh(Box<MeshRunReport>),
}

impl Sut {
    /// Runs the workload through the program's own drive loop
    /// ([`Fleet::run`] or [`Mesh::run`]).
    ///
    /// # Errors
    ///
    /// Propagates unrecovered simulated failures.
    pub fn run(&mut self, spec: &Spec) -> Result<RunReport, OsError> {
        match self {
            Sut::Fleet(fleet) => Ok(RunReport::Fleet(fleet.run(
                &spec.load(),
                Policy::RecoveryAware,
                spec.fleet_plan(),
            )?)),
            Sut::Mesh(mesh) => Ok(RunReport::Mesh(Box::new(mesh.run(
                &spec.load(),
                Policy::RecoveryAware,
                spec.mesh_plan(),
            )?))),
        }
    }

    /// The front fleet.
    pub fn fleet(&self) -> &Fleet {
        match self {
            Sut::Fleet(fleet) => fleet,
            Sut::Mesh(mesh) => mesh.fleet(),
        }
    }

    /// Every simulated unikernel: front instances, then mesh backends in
    /// registry order.
    pub fn systems(&self) -> Vec<&System> {
        let mut out: Vec<&System> = self.fleet().instances().iter().map(|i| &i.sys).collect();
        if let Sut::Mesh(mesh) = self {
            for svc in 0..mesh.topology().services.len() {
                out.extend(mesh.backends(svc).iter().map(|b| &b.sys));
            }
        }
        out
    }

    /// Spans the simulated system's telemetry hubs hold, and how many they
    /// evicted; both 0 with telemetry off.
    pub fn telemetry_spans(&self) -> (u64, u64) {
        let fleet = self.fleet();
        let sinks = fleet
            .instances()
            .iter()
            .filter_map(|i| i.telemetry())
            .chain(fleet.fleet_telemetry());
        let mut spans = 0;
        let mut evicted = 0;
        for sink in sinks {
            sink.with(|hub| {
                spans += hub.spans().count() as u64;
                evicted += hub.evicted();
            });
        }
        (spans, evicted)
    }

    /// Acked mesh journeys whose durable writes are missing, checked on
    /// every `stride`-th acked journey (the mesh's no-acknowledged-loss
    /// oracle; each probe is a query against the simulated store, so the
    /// benchmark samples). Empty for fleets.
    pub fn lost_acked_writes(&mut self, report: &RunReport, stride: usize) -> Vec<u64> {
        let (Sut::Mesh(mesh), RunReport::Mesh(report)) = (self, report) else {
            return Vec::new();
        };
        report
            .journeys
            .iter()
            .filter(|j| j.acked)
            .step_by(stride.max(1))
            .filter(|j| {
                mesh.write_state_present(j.journey)
                    .iter()
                    .any(|(_, present)| !present)
            })
            .map(|j| j.journey)
            .collect()
    }
}

/// What the post-run exports of `fleet-n16-traced` produced: the
/// `--trace-out`, `--metrics-out` and `vampos-audit` steps, rendered to
/// memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exports {
    /// Bytes of the Perfetto (Chrome trace-event) JSON.
    pub perfetto_bytes: u64,
    /// Bytes of the Prometheus text exposition.
    pub prometheus_bytes: u64,
    /// FNV-1a digest of the critical-path analysis JSON.
    pub analysis_digest: u64,
}

/// Renders the trace, the merged metrics and the critical-path analysis of
/// a telemetry-enabled fleet, each inside its own span.
///
/// # Panics
///
/// Panics if the fleet was built without telemetry.
pub fn export_all(fleet: &Fleet, tr: &mut Tracer) -> Exports {
    let trace = tr.span("telemetry.perfetto", || {
        fleet
            .chrome_trace_json()
            .expect("the traced workload enables telemetry")
    });
    let exposition = tr.span("telemetry.prometheus", || {
        let mut reg = fleet
            .merged_metrics()
            .expect("the traced workload enables telemetry");
        prometheus::render(&mut reg)
    });
    let analysis = tr.span("telemetry.analyze", || {
        let processes = fleet
            .span_processes()
            .expect("the traced workload enables telemetry");
        analyze(&processes).to_json()
    });
    Exports {
        perfetto_bytes: trace.len() as u64,
        prometheus_bytes: exposition.len() as u64,
        analysis_digest: {
            let mut h = Fnv::default();
            h.bytes(analysis.as_bytes());
            h.0
        },
    }
}

/// 64-bit FNV-1a, fed bytes or formatted text.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a value's `Debug` form, without building the string: two
/// equal reports digest equally.
pub fn debug_digest(value: &impl fmt::Debug) -> u64 {
    let mut h = Fnv::default();
    let _ = write!(h, "{value:?}");
    h.0
}

/// Host time of one repetition's phases, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Building and booting the system.
    pub setup_s: f64,
    /// The drive loop.
    pub run_s: f64,
    /// Post-run exports and analysis.
    pub export_s: f64,
}

/// One untraced repetition: boot, run through the program's own loop,
/// export (traced workload only).
pub struct Repetition {
    /// Host time per phase.
    pub times: PhaseTimes,
    /// The simulated system after the run.
    pub sut: Sut,
    /// The run's report.
    pub report: RunReport,
    /// Export results (`fleet-n16-traced` only).
    pub exports: Option<Exports>,
}

/// Runs one untraced repetition of `spec`.
///
/// # Errors
///
/// Propagates simulated boot or run failures.
pub fn repetition(spec: &Spec) -> Result<Repetition, OsError> {
    let t0 = Instant::now();
    let mut sut = spec.boot()?;
    let t1 = Instant::now();
    let report = sut.run(spec)?;
    let t2 = Instant::now();
    let exports = spec
        .workload
        .telemetry()
        .then(|| export_all(sut.fleet(), &mut Tracer::new()));
    let t3 = Instant::now();
    Ok(Repetition {
        times: PhaseTimes {
            setup_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            export_s: (t3 - t2).as_secs_f64(),
        },
        sut,
        report,
        exports,
    })
}

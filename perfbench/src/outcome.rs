//! The simulated outcome of a run and the checks it must pass.
//!
//! Three checks guard every repetition:
//! * invariants that hold for any seed (every request issued and
//!   completed, every instance rejuvenated once, no full reboots, no
//!   evicted spans, ...);
//! * for the default seed and one held-out seed, equality with the outcome
//!   pinned below (virtual p50/p99 and duration, reboot counts, mesh
//!   acked/retries, the analysis digest);
//! * equality with the run's first repetition (determinism), checked by
//!   the parent process across its children.

use crate::workload::{Exports, RunReport, Scale, Spec};

/// The benchmark's default seed (the CLI tools' default fleet seed).
pub const DEFAULT_SEED: u64 = 0x1234_5678;

/// The held-out seed, pinned but not used while the workloads were sized.
pub const HELD_OUT_SEED: u64 = 1337;

/// Unacked mesh journeys tolerated at any run size (see
/// [`check_invariants`]).
const UNACKED_FLOOR: u64 = 32;

/// Named simulated results of one run. Every value is virtual time or a
/// count, so it is a pure function of the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    fields: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// Collects the outcome of a run (and of its exports, if any).
    pub fn of(report: &RunReport, exports: Option<&Exports>, evicted: u64) -> Outcome {
        let mut fields = match report {
            RunReport::Fleet(r) => vec![
                ("issued", r.issued),
                ("completed", r.completed),
                ("requests", r.requests() as u64),
                ("ok", r.successes() as u64),
                ("retried", r.retried),
                ("redirects", r.redirects),
                ("p50_ns", us_to_ns(r.p50_us())),
                ("p99_ns", us_to_ns(r.p99_us())),
                ("duration_ns", r.duration.as_nanos()),
                ("component_reboots", r.component_reboots),
                ("full_reboots", r.full_reboots),
            ],
            RunReport::Mesh(r) => vec![
                ("journeys", r.journeys.len() as u64),
                ("acked", r.acked() as u64),
                ("retries", r.retries),
                ("hedges", r.hedges),
                (
                    "cached",
                    r.stages
                        .iter()
                        .flat_map(|s| &s.records)
                        .filter(|rec| rec.cached)
                        .count() as u64,
                ),
                ("p50_ns", us_to_ns(r.e2e_p50_us())),
                ("p99_ns", us_to_ns(r.e2e_p99_us())),
                ("duration_ns", r.front.duration.as_nanos()),
                ("front_ok", r.front.successes() as u64),
                ("component_reboots", r.front.component_reboots),
                ("full_reboots", r.front.full_reboots),
            ],
        };
        if let Some(e) = exports {
            fields.push(("evicted", evicted));
            fields.push(("perfetto_bytes", e.perfetto_bytes));
            fields.push(("prometheus_bytes", e.prometheus_bytes));
            fields.push(("analysis_digest", e.analysis_digest));
        }
        Outcome { fields }
    }

    /// The value of `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the outcome does not carry (a benchmark bug).
    pub fn get(&self, name: &str) -> u64 {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("outcome has no field {name:?}"))
    }

    /// Every field in collection order.
    pub fn fields(&self) -> &[(&'static str, u64)] {
        &self.fields
    }

    /// `name=value` pairs joined by commas, as the pinned table spells
    /// them.
    pub fn render(&self) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn us_to_ns(us: f64) -> u64 {
    (us * 1000.0).round() as u64
}

/// Checks the invariants every seed must satisfy. `rejuvenated` is the
/// number of components one `rejuvenate_all` reboots on a fleet instance.
pub fn check_invariants(spec: &Spec, o: &Outcome, rejuvenated: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            bad.push(what.to_owned());
        }
    };
    let ops = spec.ops();
    let instances = spec.size().instances as u64;
    if spec.workload.is_fleet() {
        expect("issued == clients x requests", o.get("issued") == ops);
        expect("completed == issued", o.get("completed") == ops);
        expect(
            "recorded requests == issued + retried",
            o.get("requests") == ops + o.get("retried"),
        );
        expect(
            "every request ok (recovery-aware rolling rejuvenation)",
            o.get("ok") == o.get("requests"),
        );
        expect(
            "every instance rejuvenated exactly once",
            o.get("component_reboots") == instances * rejuvenated,
        );
    } else {
        expect("journeys == clients x requests", o.get("journeys") == ops);
        expect("every front request ok", o.get("front_ok") == ops);
        // Journeys caught in the KV rejuvenation window may exhaust their
        // retry budget; that loss is bounded, not proportional to the run.
        expect(
            "at most max(1%, 32) journeys unacked",
            ops - o.get("acked").min(ops) <= (ops / 100).max(UNACKED_FLOOR),
        );
        expect(
            "every front instance rejuvenated exactly once",
            o.get("component_reboots") == instances * rejuvenated,
        );
    }
    expect("no full reboots", o.get("full_reboots") == 0);
    if spec.workload.telemetry() {
        expect("no evicted spans", o.get("evicted") == 0);
        expect(
            "a non-empty trace",
            o.get("perfetto_bytes") > 0 && o.get("analysis_digest") != 0,
        );
    }
    bad
}

/// A pinned outcome for one workload, scale and seed.
pub struct Pinned {
    /// Workload name.
    pub workload: &'static str,
    /// Run size.
    pub scale: Scale,
    /// Seed.
    pub seed: u64,
    /// The expected outcome, `name=value` pairs.
    pub fields: &'static str,
}

/// Outcomes recorded from the program at the benchmark's introduction.
/// A change to the simulated behaviour shows here first; a change that means
/// to move virtual results re-pins them and says why.
pub const PINNED: &[Pinned] = &[
    Pinned {
        workload: "fleet-n16",
        scale: Scale::Full,
        seed: DEFAULT_SEED,
        fields: "issued=65536,completed=65536,requests=65536,ok=65536, \
                  retried=0,redirects=128,p50_ns=509000,p99_ns=550000, \
                  duration_ns=34177904875,component_reboots=128, \
                  full_reboots=0",
    },
    Pinned {
        workload: "fleet-n16",
        scale: Scale::Full,
        seed: HELD_OUT_SEED,
        fields: "issued=65536,completed=65536,requests=65536,ok=65536, \
                  retried=0,redirects=128,p50_ns=509000,p99_ns=550000, \
                  duration_ns=34177904875,component_reboots=128, \
                  full_reboots=0",
    },
    Pinned {
        workload: "fleet-n256",
        scale: Scale::Full,
        seed: DEFAULT_SEED,
        fields: "issued=65536,completed=65536,requests=65536,ok=65536, \
                  retried=0,redirects=28,p50_ns=509000,p99_ns=570000, \
                  duration_ns=45682363240,component_reboots=2048, \
                  full_reboots=0",
    },
    Pinned {
        workload: "fleet-n256",
        scale: Scale::Full,
        seed: HELD_OUT_SEED,
        fields: "issued=65536,completed=65536,requests=65536,ok=65536, \
                  retried=0,redirects=28,p50_ns=509000,p99_ns=570000, \
                  duration_ns=45682363240,component_reboots=2048, \
                  full_reboots=0",
    },
    Pinned {
        workload: "fleet-n16-traced",
        scale: Scale::Full,
        seed: DEFAULT_SEED,
        fields: "issued=16384,completed=16384,requests=16384,ok=16384, \
                  retried=0,redirects=128,p50_ns=509000,p99_ns=570000, \
                  duration_ns=9129140314,component_reboots=128,full_reboots=0, \
                  evicted=0,perfetto_bytes=75837530,prometheus_bytes=34761, \
                  analysis_digest=9924901689689884766",
    },
    Pinned {
        workload: "fleet-n16-traced",
        scale: Scale::Full,
        seed: HELD_OUT_SEED,
        fields: "issued=16384,completed=16384,requests=16384,ok=16384, \
                  retried=0,redirects=128,p50_ns=509000,p99_ns=570000, \
                  duration_ns=9129140314,component_reboots=128,full_reboots=0, \
                  evicted=0,perfetto_bytes=75837530,prometheus_bytes=34761, \
                  analysis_digest=9924901689689884766",
    },
    Pinned {
        workload: "mesh-rolling",
        scale: Scale::Full,
        seed: DEFAULT_SEED,
        fields: "journeys=8192,acked=8175,retries=8142,hedges=0,cached=2697, \
                  p50_ns=3736000,p99_ns=23360000,duration_ns=27078039562, \
                  front_ok=8192,component_reboots=24,full_reboots=0",
    },
    Pinned {
        workload: "mesh-rolling",
        scale: Scale::Full,
        seed: HELD_OUT_SEED,
        fields: "journeys=8192,acked=8175,retries=8142,hedges=0,cached=2697, \
                  p50_ns=3736000,p99_ns=23360000,duration_ns=27078039562, \
                  front_ok=8192,component_reboots=24,full_reboots=0",
    },
    Pinned {
        workload: "fleet-n16",
        scale: Scale::Quick,
        seed: DEFAULT_SEED,
        fields: "issued=1024,completed=1024,requests=1024,ok=1024,retried=0, \
                  redirects=4,p50_ns=508278,p99_ns=603024, \
                  duration_ns=1289673037,component_reboots=128,full_reboots=0",
    },
    Pinned {
        workload: "fleet-n16",
        scale: Scale::Quick,
        seed: HELD_OUT_SEED,
        fields: "issued=1024,completed=1024,requests=1024,ok=1024,retried=0, \
                  redirects=4,p50_ns=508278,p99_ns=603024, \
                  duration_ns=1289673037,component_reboots=128,full_reboots=0",
    },
    Pinned {
        workload: "fleet-n256",
        scale: Scale::Quick,
        seed: DEFAULT_SEED,
        fields: "issued=1024,completed=1024,requests=1024,ok=1024,retried=0, \
                  redirects=0,p50_ns=570572,p99_ns=603024, \
                  duration_ns=15375695225,component_reboots=2048, \
                  full_reboots=0",
    },
    Pinned {
        workload: "fleet-n256",
        scale: Scale::Quick,
        seed: HELD_OUT_SEED,
        fields: "issued=1024,completed=1024,requests=1024,ok=1024,retried=0, \
                  redirects=0,p50_ns=570572,p99_ns=603024, \
                  duration_ns=15375695225,component_reboots=2048, \
                  full_reboots=0",
    },
    Pinned {
        workload: "fleet-n16-traced",
        scale: Scale::Quick,
        seed: DEFAULT_SEED,
        fields: "issued=1024,completed=1024,requests=1024,ok=1024,retried=0, \
                  redirects=4,p50_ns=508278,p99_ns=603024, \
                  duration_ns=1289673037,component_reboots=128,full_reboots=0, \
                  evicted=0,perfetto_bytes=5030152,prometheus_bytes=34385, \
                  analysis_digest=5320325617148483045",
    },
    Pinned {
        workload: "fleet-n16-traced",
        scale: Scale::Quick,
        seed: HELD_OUT_SEED,
        fields: "issued=1024,completed=1024,requests=1024,ok=1024,retried=0, \
                  redirects=4,p50_ns=508278,p99_ns=603024, \
                  duration_ns=1289673037,component_reboots=128,full_reboots=0, \
                  evicted=0,perfetto_bytes=5030152,prometheus_bytes=34385, \
                  analysis_digest=5320325617148483045",
    },
    Pinned {
        workload: "mesh-rolling",
        scale: Scale::Quick,
        seed: DEFAULT_SEED,
        fields: "journeys=512,acked=495,retries=462,hedges=0,cached=137, \
                  p50_ns=3737556,p99_ns=23309328,duration_ns=1851791364, \
                  front_ok=512,component_reboots=24,full_reboots=0",
    },
    Pinned {
        workload: "mesh-rolling",
        scale: Scale::Quick,
        seed: HELD_OUT_SEED,
        fields: "journeys=512,acked=495,retries=462,hedges=0,cached=137, \
                  p50_ns=3737556,p99_ns=23309328,duration_ns=1851791364, \
                  front_ok=512,component_reboots=24,full_reboots=0",
    },
];

/// The pinned outcome for `spec`, if there is one.
pub fn pinned_for(spec: &Spec) -> Option<&'static Pinned> {
    PINNED.iter().find(|p| {
        p.workload == spec.workload.name() && p.scale == spec.scale && p.seed == spec.seed
    })
}

/// Compares an outcome against a pinned `name=value` line; lists every
/// field that differs, is missing or is extra.
pub fn check_pinned(o: &Outcome, pinned: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expected: Vec<(&str, &str)> = Vec::new();
    for pair in pinned.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(kv) => expected.push(kv),
            None => bad.push(format!("malformed pinned pair {pair:?}")),
        }
    }
    for (name, value) in o.fields() {
        match expected.iter().find(|(k, _)| k == name) {
            Some((_, want)) if *want == value.to_string() => {}
            Some((_, want)) => bad.push(format!("{name}: got {value}, pinned {want}")),
            None => bad.push(format!("{name}: got {value}, not pinned")),
        }
    }
    for (name, want) in &expected {
        if !o.fields().iter().any(|(k, _)| k == name) {
            bad.push(format!("{name}: pinned {want}, missing from the outcome"));
        }
    }
    bad
}

/// Every check one repetition makes on its own: the invariants, plus the
/// pinned outcome when the seed has one. (Agreement between repetitions
/// is checked by the parent process.)
pub fn check(spec: &Spec, o: &Outcome, rejuvenated: u64) -> Vec<String> {
    let mut bad = check_invariants(spec, o, rejuvenated);
    if let Some(p) = pinned_for(spec) {
        bad.extend(check_pinned(o, p.fields));
    }
    bad
}

//! Layer probes: single calls timed on a freshly booted instance with a
//! fleet instance's component set, one call per sample.
//!
//! They are the unit costs behind the core counters: a syscall in each OS
//! mode (the Unikraft/VampOS-Noop/VampOS-DaS difference isolates function
//! logging plus MPK), a file open+close and a 4 KiB pread through the VFS
//! stack, one component reboot, and one HTTP GET through one instance.

use std::hint::black_box;
use std::time::Instant;

use vampos_cluster::{Fleet, FleetConfig, FleetLoad, Policy};
use vampos_core::{Mode, System};
use vampos_host::HostHandle;
use vampos_oslib::vfs::OpenFlags;
use vampos_ukernel::OsError;

use crate::alloc;
use crate::spans::Tracer;
use crate::stats::Samples;

/// Samples per syscall probe.
const SYSCALL_SAMPLES: usize = 4000;
/// Samples of the component-reboot probe (each one is a full restore).
const REBOOT_SAMPLES: usize = 200;
/// Samples of the HTTP GET probe.
const GET_SAMPLES: usize = 2000;
/// Untimed calls before each syscall probe.
const WARMUP: usize = 200;

/// File the pread probe reads; larger than one read.
const PREAD_FILE: &str = "/www/probe.bin";
const PREAD_LEN: u64 = 4096;

/// The probes' results. Per-mode arrays follow [`MODES`].
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `getpid` per mode.
    pub getpid: [Samples; 3],
    /// Heap allocations per `getpid` in VampOS-DaS.
    pub getpid_allocs_das: f64,
    /// `open` plus `close` of the served file, per mode.
    pub open_close: [Samples; 3],
    /// 4 KiB `pread`, per mode.
    pub pread_4k: [Samples; 3],
    /// `reboot_component("9pfs")`, VampOS-DaS.
    pub reboot_9pfs: Samples,
    /// One HTTP GET through a one-instance fleet.
    pub http_get: Samples,
    /// Heap allocations per HTTP GET.
    pub http_get_allocs: f64,
}

/// Mode labels: Unikraft, VampOS-Noop, VampOS-DaS.
pub const MODES: [&str; 3] = ["unikraft", "noop", "das"];

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 % 251) as u8).collect()
}

/// Boots a bare system with a fleet instance's component set and files,
/// plus the pread probe's file.
fn probe_system(mode: Mode, seed: u64) -> Result<System, OsError> {
    let cfg = FleetConfig::default();
    let host = HostHandle::new();
    host.with(|w| {
        for (path, bytes) in &cfg.files {
            w.ninep_mut().put_file(path, bytes);
        }
        w.ninep_mut()
            .put_file(PREAD_FILE, &pattern(2 * PREAD_LEN as usize));
    });
    System::builder()
        .mode(mode)
        .components(cfg.set)
        .host(host)
        .seed(seed)
        .build()
}

fn time<T>(samples: &mut Samples, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = black_box(f());
    samples.push(t0.elapsed().as_nanos() as u64);
    out
}

fn check(ok: bool, what: &str) -> Result<(), OsError> {
    if ok {
        Ok(())
    } else {
        Err(OsError::Io(format!("probe check failed: {what}")))
    }
}

/// Runs every probe, each inside a span.
///
/// # Errors
///
/// Propagates simulated failures and reports a probe whose result is wrong
/// (a short read, wrong bytes, a failed GET) as an error.
pub fn run(seed: u64, tr: &mut Tracer) -> Result<Probes, OsError> {
    let mut p = Probes::default();
    for s in p
        .getpid
        .iter_mut()
        .chain(&mut p.open_close)
        .chain(&mut p.pread_4k)
    {
        s.reserve(SYSCALL_SAMPLES);
    }
    p.reboot_9pfs.reserve(REBOOT_SAMPLES);
    p.http_get.reserve(GET_SAMPLES);
    let index = &FleetConfig::default().files[0].0;
    let want = pattern(2 * PREAD_LEN as usize);
    let modes = [Mode::unikraft(), Mode::vampos_noop(), Mode::vampos_das()];
    let mut das = None;
    for (m, mode) in modes.into_iter().enumerate() {
        let mut sys = probe_system(mode, seed)?;

        tr.begin("probe.getpid");
        for _ in 0..WARMUP {
            sys.os().getpid()?;
        }
        let a0 = alloc::allocations();
        for _ in 0..SYSCALL_SAMPLES {
            time(&mut p.getpid[m], || sys.os().getpid())?;
        }
        let getpid_allocs = (alloc::allocations() - a0) as f64 / SYSCALL_SAMPLES as f64;
        tr.end();

        tr.begin("probe.open_close");
        for i in 0..WARMUP + SYSCALL_SAMPLES {
            let mut open_close = || -> Result<(), OsError> {
                let fd = sys.os().open(index, OpenFlags::RDONLY)?;
                sys.os().close(fd)
            };
            if i < WARMUP {
                open_close()?;
            } else {
                time(&mut p.open_close[m], open_close)?;
            }
        }
        tr.end();

        tr.begin("probe.pread_4k");
        let fd = sys.os().open(PREAD_FILE, OpenFlags::RDONLY)?;
        for i in 0..WARMUP + SYSCALL_SAMPLES {
            let offset = (i as u64 % 2) * PREAD_LEN;
            let got = if i < WARMUP {
                sys.os().pread(fd, PREAD_LEN, offset)?
            } else {
                time(&mut p.pread_4k[m], || sys.os().pread(fd, PREAD_LEN, offset))?
            };
            let at = offset as usize;
            check(
                got == want[at..at + PREAD_LEN as usize],
                "4 KiB pread bytes",
            )?;
        }
        tr.end();

        if MODES[m] == "das" {
            p.getpid_allocs_das = getpid_allocs;
            das = Some((sys, fd));
        }
    }

    tr.begin("probe.reboot_9pfs");
    let (mut sys, fd) = das.expect("VampOS-DaS is one of the probed modes");
    for _ in 0..REBOOT_SAMPLES {
        time(&mut p.reboot_9pfs, || sys.reboot_component("9pfs"))?;
        // The open file survives the 9pfs reboot: the restored component
        // serves the same bytes through the same fd.
        let got = sys.os().pread(fd, PREAD_LEN, 0)?;
        check(
            got == want[..PREAD_LEN as usize],
            "pread through an fd opened before a 9pfs reboot",
        )?;
    }
    tr.end();

    tr.begin("probe.http_get");
    http_get(seed, &mut p)?;
    tr.end();
    Ok(p)
}

/// One-instance fleet, one client, GETs on the open-loop grid.
fn http_get(seed: u64, p: &mut Probes) -> Result<(), OsError> {
    let mut fleet = Fleet::new(FleetConfig {
        instances: 1,
        seed,
        ..FleetConfig::default()
    })?;
    let load = FleetLoad {
        clients: 1,
        requests_per_client: WARMUP + GET_SAMPLES,
        ..FleetLoad::default()
    };
    let mut drive = fleet.begin_front(&load, Policy::RecoveryAware);
    let mut due = drive.first_due(0);
    let mut allocs = 0;
    for i in 0..load.requests_per_client {
        let a0 = alloc::allocations();
        let (_, outcome) = if i < WARMUP {
            drive.dispatch(&mut fleet, 0, due)?
        } else {
            let got = time(&mut p.http_get, || drive.dispatch(&mut fleet, 0, due))?;
            allocs += alloc::allocations() - a0;
            got
        };
        check(outcome.ok, "HTTP GET through one instance")?;
        drive.note_completed();
        due = load
            .shape
            .next_due(due, drive.started(), drive.sent(0), load.think_time);
    }
    p.http_get_allocs = allocs as f64 / GET_SAMPLES as f64;
    Ok(())
}

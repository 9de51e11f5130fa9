//! Allocation budgets of the per-request call path: a deterministic stand-in
//! for host time that CI can gate on (wall-clock is too noisy on shared
//! runners). Each test counts the heap allocations its own thread makes
//! while it drives the simulator, so tests running in parallel do not see
//! each other's allocations.
//!
//! | probe | measured | budget | before |
//! |---|---|---|---|
//! | DaS `getpid`, nginx component set | 0 | 0 | 5 |
//! | DaS `open` + `close` of a served file | 100.09 | [`OPEN_CLOSE_BUDGET`] | 148.09 |
//! | HTTP GET through a one-instance fleet | 71.90 | [`HTTP_GET_BUDGET`] | 146.96 |
//!
//! Figures are allocations per operation, averaged over [`SAMPLES`] after
//! [`WARMUP`]. "Before" is the same probe against the runtime as it was
//! when every cross-component call also pushed an owned-string event into
//! an always-on ring buffer, cloned its caller's name, and every syscall
//! allocated its summary key. The budgets are the measured counts rounded
//! up to whole allocations per operation: a change that adds an allocation
//! to these paths must raise the budget here and say why.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use vampos_cluster::{Fleet, FleetConfig, FleetLoad, Policy};
use vampos_core::{ComponentSet, Mode, System};
use vampos_host::HostHandle;
use vampos_oslib::vfs::OpenFlags;

/// Allocations per DaS `open` + `close` pair.
const OPEN_CLOSE_BUDGET: u64 = 101;
/// Allocations per HTTP GET through one instance.
const HTTP_GET_BUDGET: u64 = 72;

/// Untimed calls before each measurement: first-sight allocations (syscall
/// summary keys, connection buffers) belong to warm-up, not the steady state.
const WARMUP: usize = 200;
const SAMPLES: u64 = 1000;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn counted() {
    // `try_with`: an allocator must never panic, even during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the caller's
// pointer and layout unchanged; the bookkeeping touches only a
// const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `op` [`WARMUP`] times, then [`SAMPLES`] times counted, and returns
/// the counted allocations.
fn allocs_after_warmup(mut op: impl FnMut()) -> u64 {
    for _ in 0..WARMUP {
        op();
    }
    let before = allocations();
    for _ in 0..SAMPLES {
        op();
    }
    allocations() - before
}

/// A fleet instance's system, booted bare: nginx component set, its files.
fn nginx_das() -> System {
    let host = HostHandle::new();
    host.with(|w| {
        for (path, bytes) in &FleetConfig::default().files {
            w.ninep_mut().put_file(path, bytes);
        }
    });
    System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::nginx())
        .host(host)
        .build()
        .expect("boot")
}

#[test]
fn das_getpid_makes_no_allocation() {
    let mut sys = nginx_das();
    let allocs = allocs_after_warmup(|| {
        sys.os().getpid().expect("getpid");
    });
    assert_eq!(allocs, 0, "{allocs} allocations over {SAMPLES} getpids");
}

#[test]
fn das_open_close_stays_within_budget() {
    let mut sys = nginx_das();
    let path = FleetConfig::default().files[0].0.clone();
    let allocs = allocs_after_warmup(|| {
        let fd = sys.os().open(&path, OpenFlags::RDONLY).expect("open");
        sys.os().close(fd).expect("close");
    });
    assert!(
        allocs <= OPEN_CLOSE_BUDGET * SAMPLES,
        "{allocs} allocations over {SAMPLES} open+close pairs"
    );
}

#[test]
fn http_get_through_one_instance_stays_within_budget() {
    let mut fleet = Fleet::new(FleetConfig {
        instances: 1,
        ..FleetConfig::default()
    })
    .expect("fleet boots");
    let load = FleetLoad {
        clients: 1,
        requests_per_client: WARMUP + SAMPLES as usize,
        ..FleetLoad::default()
    };
    let mut drive = fleet.begin_front(&load, Policy::RecoveryAware);
    let mut due = drive.first_due(0);
    let allocs = allocs_after_warmup(|| {
        let (_, outcome) = drive.dispatch(&mut fleet, 0, due).expect("dispatch");
        assert!(outcome.ok, "GET failed");
        drive.note_completed();
        due = load
            .shape
            .next_due(due, drive.started(), drive.sent(0), load.think_time);
    });
    assert!(
        allocs <= HTTP_GET_BUDGET * SAMPLES,
        "{allocs} allocations over {SAMPLES} GETs"
    );
}

//! Allocation budgets of the per-request call path: a deterministic stand-in
//! for host time that CI can gate on (wall-clock is too noisy on shared
//! runners). Each test counts the heap allocations its own thread makes
//! while it drives the simulator, so tests running in parallel do not see
//! each other's allocations.
//!
//! | probe | measured | budget | payload-copying call path | string-keyed call path | event ring |
//! |---|---|---|---|---|---|
//! | DaS `getpid`, nginx component set | 0 | 0 | 0 | 0 | 5 |
//! | DaS `open` + `close` of a served file | 43.70 | [`OPEN_CLOSE_BUDGET`] | 53.70 | 100.09 | 148.09 |
//! | HTTP GET through a one-instance fleet | 19.73 | [`HTTP_GET_BUDGET`] | 58.73 | 71.90 | 146.96 |
//! | heap bytes per HTTP GET (not allocations) | 3720.19 | [`HTTP_GET_BYTES_BUDGET`] | 7476.71 | | |
//! | journey through the standard mesh, one-instance front | 174.51 | [`MESH_JOURNEY_BUDGET`] | 380.51 | | |
//!
//! Figures are allocations per operation, averaged over [`SAMPLES`] after
//! [`WARMUP`]. The three right-hand columns are the same probe against
//! earlier runtimes. "Payload-copying call path": every hop, function-log
//! entry and recorded downcall deep-copied its byte payloads, every logged
//! call allocated its argument vector, and the servers built their
//! per-request buffers (paths, headers, readiness queries, replies) afresh.
//! "String-keyed call path": in addition, every logged call stored its
//! caller and function names, and every recorded downcall its target and
//! function names, as owned strings, and function-log index upkeep copied
//! session lists. "Event ring": in addition, every cross-component call
//! pushed an owned-string event into an always-on ring buffer, cloned its
//! caller's name, and every syscall allocated its summary key. The budgets
//! are the measured counts rounded up to whole allocations (bytes) per
//! operation: a change that adds an allocation to these paths must raise
//! the budget here and say why.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use vampos_cluster::{Fleet, FleetConfig, FleetLoad, Policy};
use vampos_core::{ComponentSet, Mode, System};
use vampos_host::HostHandle;
use vampos_mesh::{Mesh, MeshConfig, MeshPlan};
use vampos_oslib::vfs::OpenFlags;

/// Allocations per DaS `open` + `close` pair.
const OPEN_CLOSE_BUDGET: u64 = 44;
/// Allocations per HTTP GET through one instance.
const HTTP_GET_BUDGET: u64 = 20;
/// Heap bytes allocated per HTTP GET through one instance.
const HTTP_GET_BYTES_BUDGET: u64 = 3721;
/// Allocations per journey through the standard mesh.
const MESH_JOURNEY_BUDGET: u64 = 175;

/// Untimed calls before each measurement: first-sight allocations (interned
/// function names, connection buffers) belong to warm-up, not the steady
/// state.
const WARMUP: usize = 200;
const SAMPLES: u64 = 1000;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn counted(bytes: usize) {
    // `try_with`: an allocator must never panic, even during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to the system allocator with the caller's
// pointer and layout unchanged; the bookkeeping touches only const-
// initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap activity of this thread: allocations (a reallocation counts as
/// one) and the bytes they requested.
#[derive(Debug, Clone, Copy)]
struct HeapUse {
    allocs: u64,
    bytes: u64,
}

fn heap_use() -> HeapUse {
    HeapUse {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

impl std::ops::Sub for HeapUse {
    type Output = HeapUse;

    fn sub(self, earlier: HeapUse) -> HeapUse {
        HeapUse {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Runs `op` [`WARMUP`] times, then [`SAMPLES`] times counted, and returns
/// the counted heap use.
fn heap_after_warmup(mut op: impl FnMut()) -> HeapUse {
    for _ in 0..WARMUP {
        op();
    }
    let before = heap_use();
    for _ in 0..SAMPLES {
        op();
    }
    heap_use() - before
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
    let heap = heap_after_warmup(|| {
        sys.os().getpid().expect("getpid");
    });
    assert_eq!(heap.allocs, 0, "{heap:?} over {SAMPLES} getpids");
}

#[test]
fn das_open_close_stays_within_budget() {
    let mut sys = nginx_das();
    let path = FleetConfig::default().files[0].0.clone();
    let heap = heap_after_warmup(|| {
        let fd = sys.os().open(&path, OpenFlags::RDONLY).expect("open");
        sys.os().close(fd).expect("close");
    });
    assert!(
        heap.allocs <= OPEN_CLOSE_BUDGET * SAMPLES,
        "{heap:?} over {SAMPLES} open+close pairs"
    );
}

/// Heap use of [`SAMPLES`] HTTP GETs through a one-instance fleet, after
/// [`WARMUP`].
fn http_get_heap() -> HeapUse {
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
    heap_after_warmup(|| {
        let (_, outcome) = drive.dispatch(&mut fleet, 0, due).expect("dispatch");
        assert!(outcome.ok, "GET failed");
        drive.note_completed();
        due = load
            .shape
            .next_due(due, drive.started(), drive.sent(0), load.think_time);
    })
}

#[test]
fn http_get_through_one_instance_stays_within_budget() {
    let heap = http_get_heap();
    assert!(
        heap.allocs <= HTTP_GET_BUDGET * SAMPLES,
        "{heap:?} over {SAMPLES} GETs"
    );
}

/// Bytes allocated stand in for bytes copied: every copy of a payload into
/// a fresh buffer allocates its length.
#[test]
fn http_get_heap_bytes_stay_within_budget() {
    let heap = http_get_heap();
    assert!(
        heap.bytes <= HTTP_GET_BYTES_BUDGET * SAMPLES,
        "{heap:?} over {SAMPLES} GETs"
    );
}

/// Heap use of one run of `journeys` journeys by one client through a
/// freshly booted mesh: the standard topology behind a one-instance front.
fn mesh_run_heap(journeys: usize) -> HeapUse {
    let mut mesh = Mesh::new(MeshConfig {
        front: FleetConfig {
            instances: 1,
            ..FleetConfig::default()
        },
        ..MeshConfig::default()
    })
    .expect("mesh boots");
    let load = FleetLoad {
        clients: 1,
        requests_per_client: journeys,
        ..FleetLoad::default()
    };
    let before = heap_use();
    let report = mesh
        .run(&load, Policy::RecoveryAware, MeshPlan::none())
        .expect("mesh run");
    let heap = heap_use() - before;
    assert_eq!(report.acked(), journeys, "every journey acked");
    heap
}

/// The marginal cost of a journey: two runs that differ by [`SAMPLES`]
/// journeys, so boot and warm-up cancel out.
#[test]
fn mesh_journey_stays_within_budget() {
    let heap = mesh_run_heap(WARMUP + SAMPLES as usize) - mesh_run_heap(WARMUP);
    assert!(
        heap.allocs <= MESH_JOURNEY_BUDGET * SAMPLES,
        "{heap:?} over {SAMPLES} journeys"
    );
}

//! Criterion bench: the one name resolution each hop makes.
//!
//! `SystemBuilder::build` seeds a component's function table in name order
//! from its descriptor, which puts VFS's hot functions at positions 14–26 of
//! 27. A table filled in first-use order instead would hold them at
//! positions 4–9. Every variant resolves the names an HTTP GET calls on
//! VFS, 1000 rounds per sample. The `plain_scan` variants are the reference:
//! a scan that compares each name (length, then bytes) in turn, whose cost
//! grows with the name's position. `FnTable` first tries a memo of recent
//! resolutions, so its two orders must resolve equally fast, and no slower
//! than a plain scan in first-use order.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use vampos_core::analysis::instantiate;
use vampos_core::symbols::FnTable;
use vampos_host::HostHandle;

/// The VFS functions one HTTP GET through a fleet instance calls.
const HOT: [&str; 4] = ["poll_ready", "read", "pread", "writev"];
/// The VFS functions a fleet instance calls before its first GET.
const BOOT: [&str; 6] = [
    "mount",
    "vfs_alloc_socket",
    "bind",
    "listen",
    "open",
    "fstat",
];
const ROUNDS: usize = 1000;

/// The reference resolution: compare each name in turn.
fn plain_scan(names: &[&str]) -> usize {
    let mut sum = 0;
    for _ in 0..ROUNDS {
        for name in HOT {
            let name = black_box(name);
            sum += names.iter().position(|n| *n == name).expect("known");
        }
    }
    sum
}

fn resolve_hot(table: &mut FnTable) -> usize {
    let mut sum = 0;
    for _ in 0..ROUNDS {
        for name in HOT {
            sum += table.resolve(black_box(name)).index();
        }
    }
    sum
}

fn bench_call_path(c: &mut Criterion) {
    let vfs = instantiate("vfs", &HostHandle::new()).expect("vfs");
    let mut group = c.benchmark_group("call_path");

    group.bench_function("resolve_vfs_get_x1000/seeded", |b| {
        let mut table = FnTable::seeded(vfs.descriptor());
        b.iter(|| resolve_hot(&mut table))
    });

    group.bench_function("resolve_vfs_get_x1000/first_use", |b| {
        let mut table = FnTable::default();
        for name in BOOT.iter().chain(&HOT) {
            table.resolve(name);
        }
        b.iter(|| resolve_hot(&mut table))
    });

    let desc = vfs.descriptor();
    let mut seeded: Vec<&str> = desc
        .exported_functions()
        .chain(desc.logged_functions())
        .chain(desc.replay_safe_functions())
        .collect();
    seeded.sort_unstable();
    seeded.dedup();
    group.bench_function("resolve_vfs_get_x1000/plain_scan_seeded", |b| {
        b.iter(|| plain_scan(&seeded))
    });

    let first_use: Vec<&str> = BOOT.iter().chain(&HOT).copied().collect();
    group.bench_function("resolve_vfs_get_x1000/plain_scan_first_use", |b| {
        b.iter(|| plain_scan(&first_use))
    });

    group.finish();
}

criterion_group!(benches, bench_call_path);
criterion_main!(benches);

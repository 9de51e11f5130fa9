//! Criterion bench: function-log mechanics — appends, session-aware
//! cancellation and threshold compaction (the machinery behind Table III
//! and Table IV).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use vampos_core::funclog::entry_bytes;
use vampos_core::{Call, Caller, Compaction, FnId, FunctionLog};
use vampos_ukernel::{SessionEvent, Value};

/// The benched functions, as ids into a notional VFS function table.
const FUNCS: [&str; 4] = ["open", "write", "close", "vfs_set_offset"];

fn func(name: &str) -> FnId {
    FnId::new(
        FUNCS
            .iter()
            .position(|f| *f == name)
            .expect("benched function"),
    )
}

/// Appends an application call to `name` with no downcalls, sized as the
/// runtime sizes it.
fn append(log: &mut FunctionLog, name: &str, args: &[Value], ret: &Value, event: SessionEvent) {
    let args_bytes = args.iter().map(Value::byte_len).sum();
    let call = Call {
        caller: Caller::App,
        func: func(name),
        args,
        ret,
        downcalls: Vec::new(),
        bytes: entry_bytes("app", name, args_bytes, ret.byte_len(), 0),
    };
    log.append(call, event, true);
}

/// The compaction decision VFS makes for a run of reads/writes on `fd`.
fn set_offset(fd: u64) -> Compaction {
    let args = vec![Value::U64(fd), Value::U64(8192)];
    let args_bytes = args.iter().map(Value::byte_len).sum();
    Compaction::Replace {
        func: func("vfs_set_offset"),
        bytes: entry_bytes("compactor", "vfs_set_offset", args_bytes, 0, 0),
        args,
        ret: Value::Unit,
    }
}

fn filled_log(sessions: u64, touches_per_session: usize) -> FunctionLog {
    let mut log = FunctionLog::new();
    for s in 0..sessions {
        append(
            &mut log,
            "open",
            &[Value::from("/f")],
            &Value::U64(s),
            SessionEvent::Open(vec![s]),
        );
        for _ in 0..touches_per_session {
            append(
                &mut log,
                "write",
                &[Value::U64(s), Value::Bytes(vec![0; 64])],
                &Value::U64(64),
                SessionEvent::Touch(s),
            );
        }
    }
    log
}

fn bench_logging(c: &mut Criterion) {
    let mut group = c.benchmark_group("funclog");

    group.bench_function("append_touch", |b| {
        let mut log = filled_log(1, 0);
        b.iter(|| {
            append(
                &mut log,
                "write",
                &[Value::U64(0), Value::Bytes(vec![0; 64])],
                &Value::U64(64),
                SessionEvent::Touch(0),
            )
        })
    });

    group.bench_function("close_cancels_session_of_16", |b| {
        b.iter_batched(
            || filled_log(8, 16),
            |mut log| {
                append(
                    &mut log,
                    "close",
                    &[Value::U64(3)],
                    &Value::Unit,
                    SessionEvent::Close(vec![3]),
                )
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("compact_session_of_128", |b| {
        b.iter_batched(
            || filled_log(1, 128),
            |mut log| log.compact_session(0, set_offset(0)),
            BatchSize::SmallInput,
        )
    });

    // Scaling: per-op cost must stay flat as the surrounding log grows 10×.
    // The session indices make append/close/compact proportional to the
    // *session's* entries, not the log's — before the rewrite each close
    // scanned every live entry three times.
    for other_sessions in [32u64, 320] {
        group.bench_function(
            format!("append_touch_amid_{other_sessions}_sessions"),
            |b| {
                let mut log = filled_log(other_sessions, 16);
                b.iter(|| {
                    append(
                        &mut log,
                        "write",
                        &[Value::U64(0), Value::Bytes(vec![0; 64])],
                        &Value::U64(64),
                        SessionEvent::Touch(0),
                    )
                })
            },
        );

        // One persistent log per bench; each iteration closes/compacts a
        // *different* session so the timed window holds only the per-op
        // work (no teardown of the whole log).
        group.bench_function(
            format!("close_session_of_16_amid_{other_sessions}_sessions"),
            |b| {
                let mut log = filled_log(other_sessions, 16);
                let mut session = 0u64;
                b.iter(|| {
                    let s = session;
                    session += 1;
                    append(
                        &mut log,
                        "close",
                        &[Value::U64(s)],
                        &Value::Unit,
                        SessionEvent::Close(vec![s]),
                    )
                })
            },
        );

        group.bench_function(
            format!("compact_session_of_16_amid_{other_sessions}_sessions"),
            |b| {
                let mut log = filled_log(other_sessions, 16);
                let mut session = 0u64;
                b.iter(|| {
                    let s = session;
                    session += 1;
                    log.compact_session(s, set_offset(s))
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_logging);
criterion_main!(benches);

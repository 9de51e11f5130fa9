//! Property tests: the indexed [`FunctionLog`] is observationally
//! equivalent to the straightforward scan-the-whole-log implementation it
//! replaced, over arbitrary open/touch/close/compact sequences.
//!
//! The reference model below is a transliteration of the original
//! `Vec<LogEntry>` + triple-`retain` implementation (O(n) per close); the
//! indexed log must produce the same surviving entries in the same order,
//! the same removal counts, and the same incremental totals.
//!
//! The indexed log stores function ids; a [`FnTable`] maps the reference
//! model's names to them, and the byte totals are recomputed from names
//! and payloads with the runtime's sizing formula.

use proptest::prelude::*;

use vampos_core::funclog::{downcall_bytes, entry_bytes};
use vampos_core::symbols::{FnTable, COMPACTOR};
use vampos_core::{Call, Caller, Compaction, FunctionLog, LogEntry};
use vampos_ukernel::{names, SessionEvent, TouchSynthesis, Value};

/// The original, unindexed shrinking algorithm, kept as an executable spec.
#[derive(Default)]
struct NaiveLog {
    entries: Vec<NaiveEntry>,
    next_seq: u64,
    removed_total: u64,
}

struct NaiveEntry {
    seq: u64,
    func: String,
    tag: NaiveTag,
    synthetic: bool,
}

enum NaiveTag {
    Free,
    Open { created: Vec<u64>, live: Vec<u64> },
    Touch(u64),
    Close(Vec<u64>),
}

impl NaiveLog {
    fn append(&mut self, func: &str, event: &SessionEvent, shrinking: bool) -> usize {
        let mut removed = 0usize;
        let tag = match event {
            SessionEvent::None => NaiveTag::Free,
            SessionEvent::Open(sessions) => NaiveTag::Open {
                created: sessions.clone(),
                live: sessions.clone(),
            },
            SessionEvent::Touch(s) => NaiveTag::Touch(*s),
            SessionEvent::Close(sessions) => {
                if shrinking {
                    self.entries.retain(|e| {
                        let kill = matches!(&e.tag, NaiveTag::Touch(s) if sessions.contains(s));
                        if kill {
                            removed += 1;
                        }
                        !kill
                    });
                    let mut fully_dead: Vec<u64> = Vec::new();
                    self.entries.retain_mut(|e| {
                        if let NaiveTag::Open { created, live } = &mut e.tag {
                            live.retain(|s| !sessions.contains(s));
                            if live.is_empty() {
                                fully_dead.extend(created.iter().copied());
                                removed += 1;
                                return false;
                            }
                        }
                        true
                    });
                    if !fully_dead.is_empty() {
                        self.entries.retain(|e| {
                            let kill = matches!(
                                &e.tag,
                                NaiveTag::Close(ss)
                                    if ss.iter().all(|s| fully_dead.contains(s))
                            );
                            if kill {
                                removed += 1;
                            }
                            !kill
                        });
                    }
                    self.removed_total += removed as u64;
                    let still_recreated = self.entries.iter().any(|e| {
                        matches!(
                            &e.tag,
                            NaiveTag::Open { created, .. }
                                if created.iter().any(|s| sessions.contains(s))
                        )
                    });
                    if !still_recreated {
                        return removed;
                    }
                    NaiveTag::Close(sessions.clone())
                } else {
                    NaiveTag::Free
                }
            }
        };
        self.entries.push(NaiveEntry {
            seq: self.next_seq,
            func: func.to_owned(),
            tag,
            synthetic: false,
        });
        self.next_seq += 1;
        removed
    }

    fn compact_session(&mut self, session: u64, decision: &TouchSynthesis) -> usize {
        match decision {
            TouchSynthesis::Keep => 0,
            TouchSynthesis::Drop | TouchSynthesis::Replace { .. } => {
                let before = self.entries.len();
                self.entries
                    .retain(|e| !matches!(e.tag, NaiveTag::Touch(s) if s == session));
                let removed = before - self.entries.len();
                self.removed_total += removed as u64;
                if let TouchSynthesis::Replace { func, .. } = decision {
                    if removed > 0 {
                        self.entries.push(NaiveEntry {
                            seq: self.next_seq,
                            func: func.clone(),
                            tag: NaiveTag::Touch(session),
                            synthetic: true,
                        });
                        self.next_seq += 1;
                        return removed.saturating_sub(1);
                    }
                }
                removed
            }
        }
    }

    fn touched_sessions(&self) -> Vec<u64> {
        let mut sessions: Vec<u64> = self
            .entries
            .iter()
            .filter_map(|e| match e.tag {
                NaiveTag::Touch(s) => Some(s),
                _ => None,
            })
            .collect();
        sessions.sort_unstable();
        sessions.dedup();
        sessions
    }
}

/// One step of an arbitrary log workload. Sessions are drawn from a small
/// id space so that opens, touches, closes and cancels of the same session
/// collide often.
#[derive(Debug, Clone)]
enum Op {
    Free,
    Open(Vec<u64>),
    Touch(u64),
    Close(Vec<u64>),
    CompactKeep(u64),
    CompactDrop(u64),
    CompactReplace(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Free),
        proptest::collection::vec(0u64..12, 1..4).prop_map(Op::Open),
        (0u64..12).prop_map(Op::Touch),
        proptest::collection::vec(0u64..12, 1..4).prop_map(Op::Close),
        (0u64..12).prop_map(Op::CompactKeep),
        (0u64..12).prop_map(Op::CompactDrop),
        (0u64..12).prop_map(Op::CompactReplace),
    ]
}

/// The indexed log under test and the table its function ids index.
#[derive(Default)]
struct Indexed {
    log: FunctionLog,
    fns: FnTable,
}

impl Indexed {
    /// Logs an application call to `func`; touches carry a payload so the
    /// byte accounting has something to track.
    fn append(&mut self, func: &str, ev: SessionEvent, shrinking: bool) -> usize {
        let args = match ev {
            SessionEvent::Touch(s) => vec![Value::U64(s), Value::Bytes(vec![0; s as usize])],
            _ => Vec::new(),
        };
        let args_bytes = args.iter().map(Value::byte_len).sum();
        let call = Call {
            caller: Caller::App,
            func: self.fns.resolve(func),
            args: &args,
            ret: &Value::Unit,
            downcalls: Vec::new(),
            bytes: entry_bytes(names::APP, func, args_bytes, Value::Unit.byte_len(), 0),
        };
        self.log.append(call, ev, shrinking).removed
    }

    /// Applies the component's compaction decision the way the runtime
    /// does: the synthetic function resolved, the summary entry sized.
    fn compact_session(&mut self, session: u64, decision: TouchSynthesis) -> usize {
        let decision = match decision {
            TouchSynthesis::Keep => Compaction::Keep,
            TouchSynthesis::Drop => Compaction::Drop,
            TouchSynthesis::Replace { func, args, ret } => {
                let args_bytes = args.iter().map(Value::byte_len).sum();
                Compaction::Replace {
                    func: self.fns.resolve(&func),
                    bytes: entry_bytes(COMPACTOR, &func, args_bytes, ret.byte_len(), 0),
                    args,
                    ret,
                }
            }
        };
        self.log.compact_session(session, decision)
    }

    /// [`LogEntry::byte_len`] recomputed from names and payloads.
    fn recomputed_bytes(&self, e: &LogEntry) -> usize {
        let caller = match e.caller {
            Caller::App => names::APP,
            Caller::Compactor => COMPACTOR,
            Caller::Component(_) => unreachable!("the workload logs app calls only"),
        };
        let args = e.args.iter().map(Value::byte_len).sum();
        let downcalls = e
            .downcalls
            .iter()
            .map(|d| downcall_bytes(self.fns.name(d.func), &d.ret))
            .sum();
        entry_bytes(
            caller,
            self.fns.name(e.func),
            args,
            e.ret.byte_len(),
            downcalls,
        )
    }
}

fn apply(indexed: &mut Indexed, naive: &mut NaiveLog, op: &Op, shrinking: bool) {
    match op {
        Op::Free => {
            let out = indexed.append("free", SessionEvent::None, shrinking);
            let removed = naive.append("free", &SessionEvent::None, shrinking);
            assert_eq!(out, removed);
        }
        Op::Open(ss) => {
            let ev = SessionEvent::Open(ss.clone());
            let out = indexed.append("open", ev.clone(), shrinking);
            let removed = naive.append("open", &ev, shrinking);
            assert_eq!(out, removed);
        }
        Op::Touch(s) => {
            let ev = SessionEvent::Touch(*s);
            let out = indexed.append("touch", ev.clone(), shrinking);
            let removed = naive.append("touch", &ev, shrinking);
            assert_eq!(out, removed);
        }
        Op::Close(ss) => {
            let ev = SessionEvent::Close(ss.clone());
            let out = indexed.append("close", ev.clone(), shrinking);
            let removed = naive.append("close", &ev, shrinking);
            assert_eq!(out, removed, "close({ss:?}) removal mismatch");
        }
        Op::CompactKeep(s) => {
            assert_eq!(
                indexed.compact_session(*s, TouchSynthesis::Keep),
                naive.compact_session(*s, &TouchSynthesis::Keep)
            );
        }
        Op::CompactDrop(s) => {
            assert_eq!(
                indexed.compact_session(*s, TouchSynthesis::Drop),
                naive.compact_session(*s, &TouchSynthesis::Drop)
            );
        }
        Op::CompactReplace(s) => {
            let decision = TouchSynthesis::Replace {
                func: "set_offset".into(),
                args: vec![Value::U64(*s)],
                ret: Value::Unit,
            };
            let naive_decision = TouchSynthesis::Replace {
                func: "set_offset".into(),
                args: vec![Value::U64(*s)],
                ret: Value::Unit,
            };
            assert_eq!(
                indexed.compact_session(*s, decision),
                naive.compact_session(*s, &naive_decision)
            );
        }
    }
}

fn assert_same_state(indexed: &Indexed, naive: &NaiveLog) {
    let log = &indexed.log;
    let got: Vec<(u64, &str, bool)> = log
        .iter()
        .map(|e| (e.seq, indexed.fns.name(e.func), e.synthetic))
        .collect();
    let want: Vec<(u64, &str, bool)> = naive
        .entries
        .iter()
        .map(|e| (e.seq, e.func.as_str(), e.synthetic))
        .collect();
    assert_eq!(got, want, "surviving entries diverged");
    assert_eq!(log.len(), naive.entries.len());
    assert_eq!(log.removed_total(), naive.removed_total);
    assert_eq!(log.touched_sessions(), naive.touched_sessions());
    // The incremental totals must equal a from-scratch recomputation, and
    // each entry's cached size its recomputation from names and payloads.
    for e in log.iter() {
        assert_eq!(e.byte_len(), indexed.recomputed_bytes(e), "entry {}", e.seq);
    }
    let bytes: usize = log.iter().map(LogEntry::byte_len).sum();
    let records: usize = log.iter().map(LogEntry::record_count).sum();
    assert_eq!(log.byte_len(), bytes, "incremental byte_len drifted");
    assert_eq!(
        log.record_count(),
        records,
        "incremental record_count drifted"
    );
    // The replay snapshot is exactly the surviving entries, in order.
    let snap = log.replay_entries();
    assert_eq!(snap.len(), log.len());
    for (a, b) in snap.iter().zip(log.iter()) {
        assert_eq!(a.seq, b.seq);
    }
}

proptest! {
    /// Indexed shrinking == naive full-scan shrinking, step by step.
    #[test]
    fn indexed_log_matches_naive_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut indexed = Indexed::default();
        let mut naive = NaiveLog::default();
        for op in &ops {
            apply(&mut indexed, &mut naive, op, true);
            assert_same_state(&indexed, &naive);
        }
    }

    /// With shrinking disabled nothing is ever removed, in either model.
    #[test]
    fn unshrunk_log_matches_naive_reference(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut indexed = Indexed::default();
        let mut naive = NaiveLog::default();
        for op in &ops {
            // Compactions still apply; only close-shrinking is disabled.
            apply(&mut indexed, &mut naive, op, false);
            assert_same_state(&indexed, &naive);
        }
    }
}

//! The function-call and return-value log (§V-B) and session-aware log
//! shrinking (§V-F).
//!
//! Every logged inbound call becomes a [`LogEntry`]: function, arguments,
//! return value, **and the return values of every downcall the component
//! made while executing it** ([`DownRec`]). Callers, functions and downcall
//! targets are stored as ids ([`crate::symbols`]); an entry's byte size is
//! computed once, when it is logged, from sizes the hop already knows.
//! Encapsulated restoration replays the entries in order, answering the
//! component's downcalls from the recorded values so that the restoration
//! has no side effects on running components.
//!
//! Shrinking removes sessions retired by *canceling functions* (`close`),
//! and threshold-triggered compaction summarises still-open sessions
//! (replacing a run of reads/writes with one synthetic offset-setting
//! entry).
//!
//! # Implementation notes
//!
//! The log is stored as an append-only slot vector (`Option<Arc<LogEntry>>`,
//! tombstoned on removal and garbage-collected when tombstones dominate)
//! with per-session indices over it, so every shrinking operation touches
//! only the entries of the sessions involved:
//!
//! * `touch_index` — session → slots of its `Touch` entries,
//! * `open_index` — session → slots of `Open` entries that still hold the
//!   session in their live set,
//! * `created_index` — session → surviving `Open` slots that would recreate
//!   it on replay,
//! * `close_index` — session → kept `Close` slots referencing it.
//!
//! `byte_len` and `record_count` are maintained incrementally from each
//! entry's cached size, index upkeep walks the (tiny) session lists in
//! place without allocating, and
//! [`FunctionLog::replay_entries`] hands out `Arc`-shared entries instead of
//! deep clones — an outstanding replay snapshot stays frozen even if the
//! live log keeps shrinking (copy-on-write of the one mutable field, an
//! `Open` entry's live-session set).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use vampos_ukernel::{OsError, SessionEvent, Value};

use crate::symbols::{Caller, ComponentId, FnId};

/// One recorded downcall made while executing a logged entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DownRec {
    /// Component that was invoked.
    pub target: ComponentId,
    /// Function that was invoked (an id in `target`'s table).
    pub func: FnId,
    /// The outcome the downcall produced (errors are part of the recorded
    /// control flow: a `NotFound` from `lookup` steers `open` into its
    /// create path, and replay must reproduce that).
    pub ret: Result<Value, OsError>,
}

/// Space a recorded downcall adds to its entry (Fig. 7b, Table III): a
/// fixed header, the function name and the outcome.
pub fn downcall_bytes(func_name: &str, ret: &Result<Value, OsError>) -> usize {
    32 + func_name.len()
        + match ret {
            Ok(v) => v.byte_len(),
            Err(_) => 16,
        }
}

/// Space one entry occupies (Fig. 7b, Table III): a fixed header, the
/// caller and function names, the marshalled arguments and return value,
/// and the recorded downcalls (each sized by [`downcall_bytes`]).
pub fn entry_bytes(
    caller_name: &str,
    func_name: &str,
    args_bytes: usize,
    ret_bytes: usize,
    downcalls_bytes: usize,
) -> usize {
    64 + func_name.len() + caller_name.len() + args_bytes + ret_bytes + downcalls_bytes
}

/// Arguments a [`LogArgs`] stores inside the entry itself. Every logged
/// call on the request path takes at most this many.
pub const INLINE_ARGS: usize = 3;

/// A logged call's marshalled arguments. Up to [`INLINE_ARGS`] live inline
/// in the entry, so logging a call allocates no argument vector; longer
/// lists spill to a `Vec`. Byte payloads inside are shared with the
/// caller, not copied. Derefs to `[Value]`; equality and `Debug` are those
/// of the slice.
#[derive(Clone)]
pub struct LogArgs(ArgStore);

#[derive(Clone)]
enum ArgStore {
    Inline { len: u8, vals: [Value; INLINE_ARGS] },
    Spilled(Vec<Value>),
}

impl LogArgs {
    /// Clones `args` into the log (reference-count bumps for payloads).
    pub fn from_slice(args: &[Value]) -> LogArgs {
        if args.len() > INLINE_ARGS {
            return LogArgs(ArgStore::Spilled(args.to_vec()));
        }
        let mut vals: [Value; INLINE_ARGS] = Default::default();
        for (slot, arg) in vals.iter_mut().zip(args) {
            *slot = arg.clone();
        }
        LogArgs(ArgStore::Inline {
            len: args.len() as u8,
            vals,
        })
    }
}

impl From<Vec<Value>> for LogArgs {
    fn from(args: Vec<Value>) -> LogArgs {
        LogArgs(ArgStore::Spilled(args))
    }
}

impl Deref for LogArgs {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match &self.0 {
            ArgStore::Inline { len, vals } => &vals[..usize::from(*len)],
            ArgStore::Spilled(vals) => vals,
        }
    }
}

impl PartialEq for LogArgs {
    fn eq(&self, other: &LogArgs) -> bool {
        **self == **other
    }
}

impl fmt::Debug for LogArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Session classification stored with an entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryTag {
    /// Not session-bound; always kept.
    Free,
    /// Creates sessions. `created` is immutable (what a replay of the entry
    /// recreates); `live` shrinks as sessions close, and the entry is
    /// removed when `live` empties.
    Open {
        /// Sessions this entry creates on replay.
        created: Vec<u64>,
        /// Created sessions not yet closed.
        live: Vec<u64>,
    },
    /// Belongs to the session.
    Touch(u64),
    /// A canceling entry kept because a surviving `Open` entry still
    /// recreates one of these sessions on replay (e.g. the close of one
    /// pipe end while the pipe-creating entry must stay).
    Close(Vec<u64>),
}

/// One logged function call.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Monotonic sequence number within the component's log.
    pub seq: u64,
    /// Who issued the call.
    pub caller: Caller,
    /// Invoked function (an id in the logging component's table).
    pub func: FnId,
    /// Marshalled arguments.
    pub args: LogArgs,
    /// The value the call returned.
    pub ret: Value,
    /// Downcall return values recorded during the call.
    pub downcalls: Vec<DownRec>,
    /// Session classification.
    pub tag: EntryTag,
    /// True for compaction-synthesised entries.
    pub synthetic: bool,
    /// [`entry_bytes`] of this entry, fixed when it was logged.
    bytes: usize,
}

impl LogEntry {
    /// Approximate in-memory size of the entry in bytes (space accounting
    /// for Fig. 7b and Table III), as computed by [`entry_bytes`].
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Records in this entry count as `1 + downcalls` "log entries" in the
    /// paper's Table III terminology (function-call log + return-value log).
    pub fn record_count(&self) -> usize {
        1 + self.downcalls.len()
    }
}

/// A call to log: the input of [`FunctionLog::append`].
#[derive(Debug)]
pub struct Call<'a> {
    /// Who issued the call.
    pub caller: Caller,
    /// Invoked function.
    pub func: FnId,
    /// Marshalled arguments (cloned, sharing their payloads, only if the
    /// entry is kept).
    pub args: &'a [Value],
    /// The value the call returned.
    pub ret: &'a Value,
    /// Downcalls recorded during the call.
    pub downcalls: Vec<DownRec>,
    /// The entry's size, from [`entry_bytes`].
    pub bytes: usize,
}

/// How [`FunctionLog::compact_session`] treats one open session's `Touch`
/// entries: the component's `TouchSynthesis` decision, with the synthetic
/// function resolved to an id and the summary entry sized.
#[derive(Debug, Clone, PartialEq)]
pub enum Compaction {
    /// Keep the touches.
    Keep,
    /// Drop them.
    Drop,
    /// Replace them with one synthetic entry logged by
    /// [`Caller::Compactor`].
    Replace {
        /// Synthetic function.
        func: FnId,
        /// Its arguments.
        args: Vec<Value>,
        /// Its expected return value.
        ret: Value,
        /// The entry's size, from [`entry_bytes`].
        bytes: usize,
    },
}

/// Outcome of appending an entry (for the shrink statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendOutcome {
    /// Entries (including the new one) now in the log minus before.
    pub net_entries: i64,
    /// Entries removed by close-cancellation during this append.
    pub removed: usize,
}

/// A per-component function-call / return-value log.
#[derive(Debug, Clone, Default)]
pub struct FunctionLog {
    /// Append-ordered entry store; removals tombstone in place.
    slots: Vec<Option<Arc<LogEntry>>>,
    /// Live (non-tombstoned) entries.
    live: usize,
    /// Incrementally maintained total of [`LogEntry::byte_len`].
    bytes: usize,
    /// Incrementally maintained total of [`LogEntry::record_count`].
    records: usize,
    touch_index: BTreeMap<u64, Vec<usize>>,
    open_index: BTreeMap<u64, Vec<usize>>,
    created_index: BTreeMap<u64, Vec<usize>>,
    close_index: BTreeMap<u64, Vec<usize>>,
    next_seq: u64,
    appended_total: u64,
    removed_total: u64,
    compactions: u64,
}

impl FunctionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        FunctionLog::default()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total byte size of the log.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Total "records" in the paper's Table III sense (entries + recorded
    /// downcall return values).
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Entries appended over the log's lifetime.
    pub fn appended_total(&self) -> u64 {
        self.appended_total
    }

    /// Entries removed by shrinking over the log's lifetime.
    pub fn removed_total(&self) -> u64 {
        self.removed_total
    }

    /// Threshold compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Iterates the entries in replay order.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.slots.iter().filter_map(|s| s.as_deref())
    }

    /// A cheap snapshot of the entries for replay: the `Arc`s are shared
    /// with the live log, which keeps accumulating (and shrinking)
    /// independently — a later mutation of an `Open` entry's live set
    /// copies only that entry.
    pub fn replay_entries(&self) -> Vec<Arc<LogEntry>> {
        self.slots.iter().flatten().cloned().collect()
    }

    /// Clears the log (full reboot).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
        self.bytes = 0;
        self.records = 0;
        self.touch_index.clear();
        self.open_index.clear();
        self.created_index.clear();
        self.close_index.clear();
    }

    /// Chaos hook: overwrites the newest live entry's logged return value
    /// so the next replay deterministically diverges from the log
    /// (replay-divergence fault injection). The incremental byte total is
    /// kept consistent. Returns whether an entry was corrupted (false on
    /// an empty log).
    pub fn corrupt_newest_ret(&mut self) -> bool {
        for slot in self.slots.iter_mut().rev() {
            if let Some(arc) = slot.as_mut() {
                let entry = Arc::make_mut(arc);
                let ret = Value::from("corrupted-log-record");
                let before = entry.bytes;
                entry.bytes = before - entry.ret.byte_len() + ret.byte_len();
                entry.ret = ret;
                self.bytes = self.bytes - before + entry.bytes;
                return true;
            }
        }
        false
    }

    /// Links `slot` into the indices according to its entry's tag.
    fn link(&mut self, slot: usize) {
        let entry = self.slots[slot].as_deref().expect("link: live slot");
        match &entry.tag {
            EntryTag::Free => {}
            EntryTag::Touch(s) => self.touch_index.entry(*s).or_default().push(slot),
            EntryTag::Open { created, live } => {
                for s in distinct(created) {
                    self.created_index.entry(s).or_default().push(slot);
                }
                for s in distinct(live) {
                    self.open_index.entry(s).or_default().push(slot);
                }
            }
            EntryTag::Close(sessions) => {
                for s in distinct(sessions) {
                    self.close_index.entry(s).or_default().push(slot);
                }
            }
        }
    }

    fn unlink_one(index: &mut BTreeMap<u64, Vec<usize>>, session: u64, slot: usize) {
        if let Some(v) = index.get_mut(&session) {
            v.retain(|&x| x != slot);
            if v.is_empty() {
                index.remove(&session);
            }
        }
    }

    /// Tombstones `slot`, unlinking it from every index and updating the
    /// incremental totals. No-op on already-removed slots.
    fn remove_slot(&mut self, slot: usize) {
        let Some(entry) = self.slots[slot].take() else {
            return;
        };
        self.live -= 1;
        self.bytes -= entry.bytes;
        self.records -= entry.record_count();
        match &entry.tag {
            EntryTag::Free => {}
            EntryTag::Touch(s) => Self::unlink_one(&mut self.touch_index, *s, slot),
            EntryTag::Open { created, live } => {
                for s in distinct(created) {
                    Self::unlink_one(&mut self.created_index, s, slot);
                }
                for s in distinct(live) {
                    Self::unlink_one(&mut self.open_index, s, slot);
                }
            }
            EntryTag::Close(sessions) => {
                for s in distinct(sessions) {
                    Self::unlink_one(&mut self.close_index, s, slot);
                }
            }
        }
    }

    /// Appends `entry` to the store and indices.
    fn insert(&mut self, entry: LogEntry) {
        self.live += 1;
        self.bytes += entry.bytes;
        self.records += entry.record_count();
        let slot = self.slots.len();
        self.slots.push(Some(Arc::new(entry)));
        self.link(slot);
    }

    /// Compacts the slot store once tombstones dominate, rebuilding the
    /// indices over the surviving entries (order is preserved). Amortised
    /// O(1) per removal.
    fn maybe_gc(&mut self) {
        if self.slots.len() < 64 || self.live * 2 > self.slots.len() {
            return;
        }
        let old = std::mem::take(&mut self.slots);
        self.slots = old.into_iter().flatten().map(Some).collect();
        self.touch_index.clear();
        self.open_index.clear();
        self.created_index.clear();
        self.close_index.clear();
        for slot in 0..self.slots.len() {
            self.link(slot);
        }
    }

    /// Appends a logged call, applying session-aware shrinking when
    /// `shrinking` is enabled and the event is a cancel.
    pub fn append(
        &mut self,
        call: Call<'_>,
        event: SessionEvent,
        shrinking: bool,
    ) -> AppendOutcome {
        let before = self.live as i64;
        let mut removed = 0usize;

        let tag = match &event {
            SessionEvent::None => EntryTag::Free,
            SessionEvent::Open(sessions) => EntryTag::Open {
                created: sessions.clone(),
                live: sessions.clone(),
            },
            SessionEvent::Touch(s) => EntryTag::Touch(*s),
            SessionEvent::Close(sessions) => {
                if shrinking {
                    removed = self.cancel_sessions(sessions);
                    self.removed_total += removed as u64;
                    // Keep this canceling entry only while some surviving
                    // entry would recreate one of its sessions on replay.
                    let still_recreated =
                        sessions.iter().any(|s| self.created_index.contains_key(s));
                    if !still_recreated {
                        self.maybe_gc();
                        return AppendOutcome {
                            net_entries: self.live as i64 - before,
                            removed,
                        };
                    }
                    EntryTag::Close(sessions.clone())
                } else {
                    EntryTag::Free
                }
            }
        };

        let entry = LogEntry {
            seq: self.next_seq,
            caller: call.caller,
            func: call.func,
            args: LogArgs::from_slice(call.args),
            ret: call.ret.clone(),
            downcalls: call.downcalls,
            tag,
            synthetic: false,
            bytes: call.bytes,
        };
        self.next_seq += 1;
        self.appended_total += 1;
        self.insert(entry);
        self.maybe_gc();
        AppendOutcome {
            net_entries: self.live as i64 - before,
            removed,
        }
    }

    /// Session-aware shrinking on a cancel (§V-F), index-driven: touches
    /// only the entries of the closing sessions plus the cascade
    /// candidates, never the whole log. Returns the entries removed.
    fn cancel_sessions(&mut self, sessions: &[u64]) -> usize {
        let mut removed = 0usize;

        // 1. Remove the sessions' touch entries (bucket drained wholesale,
        //    so the per-slot unlink has nothing left to scan).
        for s in distinct(sessions) {
            for slot in self.touch_index.remove(&s).unwrap_or_default() {
                self.remove_slot(slot);
                removed += 1;
            }
        }

        // 2. Retire the sessions from their creating entries; entries with
        //    no live sessions left are removed, and everything they
        //    originally created is now dead.
        let mut fully_dead: BTreeSet<u64> = BTreeSet::new();
        for s in distinct(sessions) {
            // Take the whole bucket: every one of these entries loses `s`
            // from its live set right here.
            for slot in self.open_index.remove(&s).unwrap_or_default() {
                let Some(arc) = self.slots[slot].as_mut() else {
                    continue;
                };
                // Copy-on-write: shared only while a replay snapshot is
                // outstanding, in which case the snapshot must stay frozen.
                let entry = Arc::make_mut(arc);
                let EntryTag::Open { created, live } = &mut entry.tag else {
                    continue;
                };
                live.retain(|x| *x != s);
                if live.is_empty() {
                    fully_dead.extend(created.iter().copied());
                    // `live` is empty, so `remove_slot` only has the
                    // `created` index left to unlink.
                    self.remove_slot(slot);
                    removed += 1;
                }
            }
        }

        // 3. Cascade: previously kept canceling entries whose every session
        //    lost its creator replay against nothing — remove them too.
        if !fully_dead.is_empty() {
            let mut candidates: Vec<usize> = fully_dead
                .iter()
                .filter_map(|s| self.close_index.get(s))
                .flatten()
                .copied()
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            for slot in candidates {
                let all_dead = matches!(
                    self.slots[slot].as_deref(),
                    Some(LogEntry {
                        tag: EntryTag::Close(ss),
                        ..
                    }) if ss.iter().all(|s| fully_dead.contains(s))
                );
                if all_dead {
                    self.remove_slot(slot);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// All sessions with at least one `Touch` entry (compaction candidates).
    pub fn touched_sessions(&self) -> Vec<u64> {
        let mut sessions: Vec<u64> = self.touch_index.keys().copied().collect();
        sessions.sort_unstable();
        sessions
    }

    /// Applies one session's compaction decision: removes its `Touch`
    /// entries and, for [`Compaction::Replace`], appends the synthetic
    /// summary entry. Returns the number of entries removed.
    pub fn compact_session(&mut self, session: u64, decision: Compaction) -> usize {
        match decision {
            Compaction::Keep => 0,
            Compaction::Drop | Compaction::Replace { .. } => {
                let slots = self.touch_index.remove(&session).unwrap_or_default();
                let removed = slots.len();
                for slot in slots {
                    self.remove_slot(slot);
                }
                self.removed_total += removed as u64;
                if let Compaction::Replace {
                    func,
                    args,
                    ret,
                    bytes,
                } = decision
                {
                    if removed > 0 {
                        self.insert(LogEntry {
                            seq: self.next_seq,
                            caller: Caller::Compactor,
                            func,
                            args: LogArgs::from(args),
                            ret,
                            downcalls: Vec::new(),
                            tag: EntryTag::Touch(session),
                            synthetic: true,
                            bytes,
                        });
                        self.next_seq += 1;
                        self.compactions += 1;
                        self.maybe_gc();
                        return removed.saturating_sub(1);
                    }
                }
                self.compactions += u64::from(removed > 0);
                self.maybe_gc();
                removed
            }
        }
    }
}

/// The distinct sessions of a small list, in first-occurrence order,
/// without allocating (session lists hold one or two ids).
fn distinct(sessions: &[u64]) -> impl Iterator<Item = u64> + '_ {
    sessions
        .iter()
        .enumerate()
        .filter(|&(i, s)| !sessions[..i].contains(s))
        .map(|(_, &s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FnTable;
    use vampos_ukernel::{names, Payload};

    /// A log plus the function table its ids index, so tests read in names.
    #[derive(Default)]
    struct Named {
        log: FunctionLog,
        fns: FnTable,
    }

    impl Named {
        fn append_with(
            &mut self,
            func: &str,
            args: &[Value],
            ret: &Value,
            downcalls: Vec<DownRec>,
            event: SessionEvent,
            shrinking: bool,
        ) -> AppendOutcome {
            let args_bytes = args.iter().map(Value::byte_len).sum();
            let downcalls_bytes = downcalls
                .iter()
                .map(|d| downcall_bytes(self.fns.name(d.func), &d.ret))
                .sum();
            let call = Call {
                caller: Caller::App,
                func: self.fns.resolve(func),
                args,
                ret,
                downcalls,
                bytes: entry_bytes(
                    names::APP,
                    func,
                    args_bytes,
                    ret.byte_len(),
                    downcalls_bytes,
                ),
            };
            self.log.append(call, event, shrinking)
        }

        fn append(&mut self, func: &str, event: SessionEvent, shrinking: bool) -> AppendOutcome {
            self.append_with(func, &[], &Value::Unit, Vec::new(), event, shrinking)
        }

        fn replace(&mut self, session: u64, func: &str, args: Vec<Value>) -> usize {
            let args_bytes = args.iter().map(Value::byte_len).sum();
            let decision = Compaction::Replace {
                func: self.fns.resolve(func),
                bytes: entry_bytes(crate::symbols::COMPACTOR, func, args_bytes, 0, 0),
                args,
                ret: Value::Unit,
            };
            self.log.compact_session(session, decision)
        }

        fn funcs(&self) -> Vec<&str> {
            self.log.iter().map(|e| self.fns.name(e.func)).collect()
        }
    }

    #[test]
    fn appends_accumulate_in_order() {
        let mut log = Named::default();
        log.append("a", SessionEvent::None, true);
        log.append("b", SessionEvent::None, true);
        assert_eq!(log.funcs(), ["a", "b"]);
        assert_eq!(log.log.record_count(), 2);
    }

    #[test]
    fn close_cancels_a_whole_session() {
        let mut log = Named::default();
        log.append("open", SessionEvent::Open(vec![3]), true);
        log.append("read", SessionEvent::Touch(3), true);
        log.append("write", SessionEvent::Touch(3), true);
        let out = log.append("close", SessionEvent::Close(vec![3]), true);
        assert_eq!(out.removed, 3);
        assert!(log.log.is_empty(), "open/read/write/close all gone");
    }

    #[test]
    fn close_spares_other_sessions() {
        let mut log = Named::default();
        log.append("open", SessionEvent::Open(vec![3]), true);
        log.append("open", SessionEvent::Open(vec![4]), true);
        log.append("read", SessionEvent::Touch(4), true);
        log.append("close", SessionEvent::Close(vec![3]), true);
        assert_eq!(log.funcs(), ["open", "read"]);
    }

    #[test]
    fn pipe_close_is_kept_until_both_ends_close() {
        // Pipe case: one entry creates two sessions. The close of one end
        // must stay in the log (replaying `pipe` recreates both fds), and
        // everything cascades away when the second end closes.
        let mut log = Named::default();
        log.append("pipe", SessionEvent::Open(vec![3, 4]), true);
        log.append("write", SessionEvent::Touch(4), true);
        log.append("close", SessionEvent::Close(vec![4]), true);
        assert_eq!(log.funcs(), ["pipe", "close"]);

        // Closing the read end empties the pipe entry's live set; the kept
        // close of the write end is cascaded away too.
        log.append("close", SessionEvent::Close(vec![3]), true);
        assert!(log.log.is_empty(), "log = {:?}", log.funcs());
    }

    #[test]
    fn shrinking_disabled_keeps_everything() {
        let mut log = Named::default();
        log.append("open", SessionEvent::Open(vec![3]), false);
        log.append("close", SessionEvent::Close(vec![3]), false);
        assert_eq!(log.log.len(), 2);
        assert_eq!(log.log.removed_total(), 0);
    }

    #[test]
    fn multi_session_close_requires_all_opens() {
        let mut log = Named::default();
        log.append("open", SessionEvent::Open(vec![3]), true);
        log.append("vget", SessionEvent::Open(vec![1 << 32 | 7]), true);
        let out = log.append("close", SessionEvent::Close(vec![3, 1 << 32 | 7]), true);
        assert_eq!(out.removed, 2);
        assert!(log.log.is_empty());
    }

    #[test]
    fn repeated_sessions_in_one_list_are_indexed_once() {
        let mut log = Named::default();
        log.append("pipe", SessionEvent::Open(vec![3, 3, 4]), true);
        log.append("close", SessionEvent::Close(vec![4, 4]), true);
        assert_eq!(log.funcs(), ["pipe", "close"]);
        let out = log.append("close", SessionEvent::Close(vec![3, 3]), true);
        assert_eq!(out.removed, 2);
        assert!(log.log.is_empty());
    }

    #[test]
    fn compaction_replaces_touches_with_synthetic_entry() {
        let mut log = Named::default();
        log.append("open", SessionEvent::Open(vec![3]), true);
        for _ in 0..10 {
            log.append("read", SessionEvent::Touch(3), true);
        }
        let removed = log.replace(3, "vfs_set_offset", vec![Value::U64(3), Value::U64(40)]);
        assert_eq!(removed, 9); // 10 touches → 1 synthetic
        assert_eq!(log.log.len(), 2);
        let last = log.log.iter().last().unwrap();
        assert!(last.synthetic);
        assert_eq!(last.caller, Caller::Compactor);
        assert_eq!(log.funcs(), ["open", "vfs_set_offset"]);
        // The synthetic entry is still session-bound: a later close removes it.
        log.append("close", SessionEvent::Close(vec![3]), true);
        assert!(log.log.is_empty());
    }

    #[test]
    fn compaction_drop_removes_without_replacement() {
        let mut log = Named::default();
        log.append("open", SessionEvent::Open(vec![5]), true);
        log.append("read", SessionEvent::Touch(5), true);
        log.append("read", SessionEvent::Touch(5), true);
        assert_eq!(log.log.compact_session(5, Compaction::Drop), 2);
        assert_eq!(log.log.len(), 1);
    }

    #[test]
    fn compaction_keep_is_a_no_op() {
        let mut log = Named::default();
        log.append("read", SessionEvent::Touch(5), true);
        assert_eq!(log.log.compact_session(5, Compaction::Keep), 0);
        assert_eq!(log.log.len(), 1);
    }

    #[test]
    fn touched_sessions_deduplicates() {
        let mut log = Named::default();
        log.append("read", SessionEvent::Touch(5), true);
        log.append("read", SessionEvent::Touch(5), true);
        log.append("read", SessionEvent::Touch(9), true);
        assert_eq!(log.log.touched_sessions(), vec![5, 9]);
    }

    #[test]
    fn byte_len_grows_with_payloads() {
        let mut log = Named::default();
        log.append_with(
            "write",
            &[Value::U64(3), Value::Bytes(Payload::from(&[0; 1000]))],
            &Value::U64(1000),
            Vec::new(),
            SessionEvent::Touch(3),
            true,
        );
        assert!(log.log.byte_len() > 1000);
    }

    #[test]
    fn entry_size_is_the_name_and_payload_formula() {
        // 64-byte header + "app" + "write" + two u64 args + u64 ret, and one
        // downcall: 32-byte header + "lookup" + its u64 return.
        let mut log = Named::default();
        let lookup = log.fns.resolve("lookup");
        log.append_with(
            "write",
            &[Value::U64(3), Value::U64(4)],
            &Value::U64(1),
            vec![DownRec {
                target: ComponentId::new(1),
                func: lookup,
                ret: Ok(Value::U64(9)),
            }],
            SessionEvent::None,
            true,
        );
        let want = 64 + 3 + 5 + 8 + 8 + 8 + (32 + 6 + 8);
        assert_eq!(log.log.byte_len(), want);
        assert_eq!(log.log.iter().next().unwrap().byte_len(), want);
    }

    #[test]
    fn downcalls_count_as_records() {
        let mut log = Named::default();
        let (lookup, open) = (log.fns.resolve("lookup"), log.fns.resolve("open"));
        let ninepfs = ComponentId::new(5);
        log.append_with(
            "open",
            &[],
            &Value::U64(3),
            vec![
                DownRec {
                    target: ninepfs,
                    func: lookup,
                    ret: Ok(Value::U64(1)),
                },
                DownRec {
                    target: ninepfs,
                    func: open,
                    ret: Ok(Value::Unit),
                },
            ],
            SessionEvent::Open(vec![3]),
            true,
        );
        assert_eq!(log.log.record_count(), 3);
    }

    #[test]
    fn replay_entries_is_a_snapshot() {
        let mut log = Named::default();
        log.append("open", SessionEvent::Open(vec![3]), true);
        let snap = log.log.replay_entries();
        log.append("read", SessionEvent::Touch(3), true);
        assert_eq!(snap.len(), 1);
        assert_eq!(log.log.len(), 2);
    }

    #[test]
    fn replay_snapshot_is_frozen_across_shrinking() {
        // An outstanding replay snapshot must not see later mutations of an
        // Open entry's live set (copy-on-write path of Arc::make_mut).
        let mut log = Named::default();
        log.append("pipe", SessionEvent::Open(vec![3, 4]), true);
        let snap = log.log.replay_entries();
        log.append("close", SessionEvent::Close(vec![4]), true);
        let EntryTag::Open { live, .. } = &snap[0].tag else {
            panic!("expected Open entry in snapshot");
        };
        assert_eq!(live, &[3, 4], "snapshot saw the live-set shrink");
        let EntryTag::Open { live, .. } = &log.log.iter().next().unwrap().tag else {
            panic!("expected Open entry in live log");
        };
        assert_eq!(live, &[3], "live log did not shrink");
    }

    #[test]
    fn corrupting_the_newest_ret_keeps_the_byte_total_exact() {
        let mut log = Named::default();
        log.append_with(
            "open",
            &[],
            &Value::U64(3),
            Vec::new(),
            SessionEvent::None,
            true,
        );
        let before = log.log.byte_len();
        assert!(log.log.corrupt_newest_ret());
        let corrupted = Value::from("corrupted-log-record").byte_len();
        assert_eq!(log.log.byte_len(), before - 8 + corrupted);
        assert_eq!(
            log.log.iter().next().unwrap().byte_len(),
            log.log.byte_len()
        );
    }

    #[test]
    fn incremental_totals_match_recomputation() {
        let mut log = Named::default();
        for s in 0..50u64 {
            log.append("open", SessionEvent::Open(vec![s]), true);
            for _ in 0..4 {
                log.append_with(
                    "write",
                    &[Value::U64(s), Value::Bytes(Payload::from(&[0; 32]))],
                    &Value::U64(32),
                    Vec::new(),
                    SessionEvent::Touch(s),
                    true,
                );
            }
            if s % 2 == 0 {
                log.append("close", SessionEvent::Close(vec![s]), true);
            }
        }
        let log = &log.log;
        let bytes: usize = log.iter().map(LogEntry::byte_len).sum();
        let records: usize = log.iter().map(LogEntry::record_count).sum();
        assert_eq!(log.byte_len(), bytes);
        assert_eq!(log.record_count(), records);
        assert_eq!(log.len(), log.iter().count());
    }

    #[test]
    fn store_gc_preserves_order_and_indices() {
        let mut log = Named::default();
        // Enough appends+closes to trigger tombstone GC several times over.
        for s in 0..200u64 {
            log.append("open", SessionEvent::Open(vec![s]), true);
            log.append("read", SessionEvent::Touch(s), true);
            log.append("close", SessionEvent::Close(vec![s]), true);
        }
        log.append("open", SessionEvent::Open(vec![999]), true);
        log.append("read", SessionEvent::Touch(999), true);
        assert_eq!(log.log.len(), 2);
        let seqs: Vec<u64> = log.log.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "order lost: {seqs:?}");
        // The indices still resolve the surviving session.
        log.append("close", SessionEvent::Close(vec![999]), true);
        assert!(log.log.is_empty());
    }
}

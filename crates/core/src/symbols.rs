//! Dense ids for the names on the call path.
//!
//! Unikraft resolves cross-component calls when it links the image (§V-A);
//! the runtime does the analogue once per hop, at the boundary where a call
//! enters it ([`System::syscall`](crate::System::syscall) or a component's
//! `CallContext::invoke`). From there on everything keys on ids: the target
//! slot, the logged bit, dependency-aware prediction, fault matching, the
//! function log and replay comparison. Names are looked up only where text
//! is produced (error messages, telemetry, `Debug`).
//!
//! * A [`ComponentId`] is the slot index of a linked component. Names the
//!   image does not link (a downcall to an unknown component still has to be
//!   recorded and replayed) get ids past the last slot.
//! * A [`FnId`] indexes its component's [`FnTable`]. `SystemBuilder::build`
//!   seeds each table from the descriptor's exports, logged and replay-safe
//!   sets; names a table does not declare are appended on first sight.
//!
//! The `System` methods at the end of this module are where a name becomes
//! an id and an id becomes a name again.

use std::collections::BTreeSet;
use std::sync::Arc;

use vampos_ukernel::ComponentDescriptor;

use crate::runtime::{Slot, System};

/// A component, by id: the slot index for linked components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentId(u32);

impl ComponentId {
    /// The id of slot (or unlinked-name) number `index`.
    pub fn new(index: usize) -> Self {
        ComponentId(u32::try_from(index).expect("component id fits in u32"))
    }

    /// The slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A function of one component, by id: an index into its [`FnTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnId(u32);

impl FnId {
    /// The id of table entry number `index`.
    pub fn new(index: usize) -> Self {
        FnId(u32::try_from(index).expect("function id fits in u32"))
    }

    /// The table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Who issued a logged call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// The application layer.
    App,
    /// Another component.
    Component(ComponentId),
    /// Log compaction (synthetic summary entries).
    Compactor,
}

/// Name [`Caller::Compactor`] is accounted under.
pub const COMPACTOR: &str = "compactor";

/// A function name: a descriptor's `&'static str`, or a name interned on
/// first sight. Cloning never copies the text.
#[derive(Debug, Clone)]
pub(crate) enum FnName {
    Declared(&'static str),
    Interned(Arc<str>),
}

impl std::ops::Deref for FnName {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            FnName::Declared(name) => name,
            FnName::Interned(name) => name,
        }
    }
}

/// Slots in [`FnTable`]'s resolution hints.
const HINTS: usize = 32;

/// One component's function names and their logged bits.
#[derive(Debug, Clone, Default)]
pub struct FnTable {
    names: Vec<FnName>,
    logged: Vec<bool>,
    /// Direct-mapped memo of recent resolutions: `hints[hint_slot(name)]`
    /// is one plus the id last resolved for a name mapping there (zero:
    /// none). A hit costs one name compare wherever the name sits, so a
    /// table seeded in name order resolves its hot names as fast as one
    /// filled in first-use order (`benches/call_path.rs`).
    hints: [u16; HINTS],
}

/// Where `name` sits in [`FnTable::hints`]: a mix of its length and its
/// first and last bytes.
fn hint_slot(name: &str) -> usize {
    let b = name.as_bytes();
    let first = usize::from(b.first().copied().unwrap_or(0));
    let last = usize::from(b.last().copied().unwrap_or(0));
    (b.len().wrapping_mul(31) ^ first.wrapping_mul(7) ^ last) % HINTS
}

impl FnTable {
    /// A table seeded from `desc`'s exports, logged and replay-safe sets,
    /// in name order.
    pub fn seeded(desc: &ComponentDescriptor) -> Self {
        let mut table = FnTable::default();
        table.reseed(desc);
        table
    }

    /// Re-derives the table from a (possibly replaced) descriptor: every
    /// known name's logged bit follows `desc`, and names `desc` declares
    /// that the table lacks are appended. Existing ids stay valid.
    pub fn reseed(&mut self, desc: &ComponentDescriptor) {
        for (name, logged) in self.names.iter().zip(&mut self.logged) {
            *logged = desc.is_logged(name);
        }
        let declared: BTreeSet<&'static str> = desc
            .exported_functions()
            .chain(desc.logged_functions())
            .chain(desc.replay_safe_functions())
            .collect();
        for name in declared {
            if self.find(name).is_none() {
                self.push(FnName::Declared(name), desc.is_logged(name));
            }
        }
    }

    fn find(&mut self, name: &str) -> Option<FnId> {
        let slot = hint_slot(name);
        let hint = usize::from(self.hints[slot]);
        if hint > 0 && *self.names[hint - 1] == *name {
            return Some(FnId::new(hint - 1));
        }
        // `str` equality compares lengths before bytes.
        let i = self.names.iter().position(|n| **n == *name)?;
        self.hints[slot] = u16::try_from(i + 1).unwrap_or(0);
        Some(FnId::new(i))
    }

    fn push(&mut self, name: FnName, logged: bool) -> FnId {
        self.names.push(name);
        self.logged.push(logged);
        FnId::new(self.names.len() - 1)
    }

    /// The id of `name`, appending it on first sight. An appended name is
    /// never logged: every logged function was seeded.
    pub fn resolve(&mut self, name: &str) -> FnId {
        match self.find(name) {
            Some(id) => id,
            None => self.push(FnName::Interned(Arc::from(name)), false),
        }
    }

    /// Whether calls to `id` are logged.
    pub fn is_logged(&self, id: FnId) -> bool {
        self.logged[id.index()]
    }

    /// The name of `id`.
    pub fn name(&self, id: FnId) -> &str {
        &self.names[id.index()]
    }

    /// The name of `id`, as a handle that outlives a borrow of the table.
    pub(crate) fn shared_name(&self, id: FnId) -> FnName {
        self.names[id.index()].clone()
    }
}

impl System {
    /// The slot of the linked component `name`.
    pub(crate) fn slot_index(&self, name: &str) -> Option<usize> {
        slot_named(&self.slots, name)
    }

    /// The id of component `name`: its slot, or, for a name the image does
    /// not link, an id past the slots assigned on first sight.
    pub(crate) fn component_id(&mut self, name: &str) -> ComponentId {
        if let Some(i) = self.slot_index(name) {
            return ComponentId::new(i);
        }
        let j = match self.unlinked.iter().position(|(n, _)| n == name) {
            Some(j) => j,
            None => {
                self.unlinked.push((name.to_owned(), FnTable::default()));
                self.unlinked.len() - 1
            }
        };
        ComponentId::new(self.slots.len() + j)
    }

    /// The function table of component `c`.
    pub(crate) fn fn_table(&self, c: ComponentId) -> &FnTable {
        match self.slots.get(c.index()) {
            Some(slot) => &slot.fns,
            None => &self.unlinked[c.index() - self.slots.len()].1,
        }
    }

    /// The function table of component `c`, for resolving into it.
    pub(crate) fn fn_table_mut(&mut self, c: ComponentId) -> &mut FnTable {
        let linked = self.slots.len();
        match self.slots.get_mut(c.index()) {
            Some(slot) => &mut slot.fns,
            None => &mut self.unlinked[c.index() - linked].1,
        }
    }

    /// The name of component `c`, for text output.
    pub(crate) fn component_name(&self, c: ComponentId) -> &str {
        match self.slots.get(c.index()) {
            Some(slot) => &slot.name,
            None => &self.unlinked[c.index() - self.slots.len()].0,
        }
    }

    /// Resolves a call's `target.func` names to ids: the one name lookup a
    /// hop makes. Allocates only for a name seen for the first time.
    pub(crate) fn resolve(&mut self, target: &str, func: &str) -> (ComponentId, FnId) {
        let c = self.component_id(target);
        (c, self.fn_table_mut(c).resolve(func))
    }
}

/// The slot named `name`; when two slots share a name (a configuration
/// analysis rejects) the later one.
pub(crate) fn slot_named(slots: &[Slot], name: &str) -> Option<usize> {
    slots.iter().rposition(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_mem::ArenaLayout;

    fn vfs_like() -> ComponentDescriptor {
        ComponentDescriptor::new("vfs", ArenaLayout::small())
            .exports(&["open", "read", "fstat"])
            .logs(&["open", "read", "mount"])
            .replay_safe(&["fstat"])
    }

    #[test]
    fn seeding_covers_every_declared_name_in_name_order() {
        let table = FnTable::seeded(&vfs_like());
        let names: Vec<&str> = (0..table.names.len())
            .map(|i| table.name(FnId::new(i)))
            .collect();
        assert_eq!(names, ["fstat", "mount", "open", "read"]);
        let logged: Vec<bool> = (0..table.names.len())
            .map(|i| table.is_logged(FnId::new(i)))
            .collect();
        assert_eq!(logged, [false, true, true, true]);
    }

    #[test]
    fn undeclared_names_are_appended_once_and_never_logged() {
        let mut table = FnTable::seeded(&vfs_like());
        let id = table.resolve("vfs_set_offset");
        assert_eq!(id, FnId::new(4));
        assert_eq!(table.resolve("vfs_set_offset"), id);
        assert!(!table.is_logged(id));
        assert_eq!(table.resolve("open"), FnId::new(2));
    }

    #[test]
    fn names_sharing_a_hint_slot_resolve_to_their_own_ids() {
        // Same length, first and last byte: the same hint slot.
        assert_eq!(hint_slot("read"), hint_slot("raid"));
        let mut table = FnTable::seeded(&vfs_like());
        let raid = table.resolve("raid");
        let read = table.resolve("read");
        assert_ne!(raid, read);
        for _ in 0..3 {
            assert_eq!(table.resolve("raid"), raid);
            assert_eq!(table.resolve("read"), read);
            assert_eq!(table.name(read), "read");
        }
    }

    #[test]
    fn reseeding_keeps_ids_and_follows_the_new_logged_set() {
        let mut table = FnTable::seeded(&vfs_like());
        let extra = table.resolve("truncate");
        let replacement =
            ComponentDescriptor::new("vfs", ArenaLayout::small()).logs(&["truncate", "write"]);
        table.reseed(&replacement);
        assert_eq!(table.resolve("truncate"), extra);
        assert!(table.is_logged(extra));
        let open = table.resolve("open");
        assert!(!table.is_logged(open));
        let write = table.resolve("write");
        assert_eq!(write, FnId::new(5));
        assert!(table.is_logged(write));
    }
}

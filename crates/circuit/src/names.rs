//! A name index over a table that owns the names.

use std::hash::{BuildHasher, Hasher, RandomState};

/// Finds names by position in a table that stores them (the circuit's
/// elements or node names), so no name is copied into the index.
///
/// Open addressing with linear probing over a keyed hash, so a netlist
/// cannot be written to collide; at most half the slots are full. A slot
/// packs the upper half of the name's hash with its position plus one;
/// zero is an empty slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    state: RandomState,
    slots: Vec<u64>,
    len: usize,
}

impl NameIndex {
    /// An index with room for `n` names before it regrows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        NameIndex {
            state: RandomState::new(),
            slots: vec![0; Self::slots_for(n)],
            len: 0,
        }
    }

    /// The hash of `name`, with ASCII letters lowercased when `fold`.
    pub(crate) fn hash(&self, name: &str, fold: bool) -> u64 {
        let mut h = self.state.build_hasher();
        if fold {
            let mut buf = [0u8; 32];
            for chunk in name.as_bytes().chunks(buf.len()) {
                let lower = &mut buf[..chunk.len()];
                lower.copy_from_slice(chunk);
                lower.make_ascii_lowercase();
                h.write(lower);
            }
        } else {
            h.write(name.as_bytes());
        }
        h.finish()
    }

    /// The position of the name with hash `hash` for which `is(position)`
    /// holds, if the index has one.
    pub(crate) fn find(&self, hash: u64, is: impl Fn(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash >> 32) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            let position = (slot & 0xffff_ffff) as usize - 1;
            if slot >> 32 == hash >> 32 && is(position) {
                return Some(position);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `position` under `hash`; the caller has checked that no
    /// equal name is indexed.
    ///
    /// # Panics
    ///
    /// Panics when `position + 1` does not fit the slot's 32 bits. No
    /// netlist reaches that: 2^32 names would take over 96 GiB of
    /// `String`s in the table that owns them.
    pub(crate) fn insert(&mut self, hash: u64, position: usize) {
        let tagged = u32::try_from(position + 1).expect("fewer than 2^32 - 1 names");
        if Self::slots_for(self.len + 1) > self.slots.len() {
            let old = std::mem::replace(&mut self.slots, vec![0; Self::slots_for(self.len + 1)]);
            for slot in old.into_iter().filter(|&s| s != 0) {
                self.place(slot);
            }
        }
        self.place(hash & !0xffff_ffff | u64::from(tagged));
        self.len += 1;
    }

    /// Puts a slot at the first empty place from where its probe starts:
    /// the upper half of the hash, which the slot keeps.
    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = (slot >> 32) as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Slots for `n` names: a power of two at least `2n`.
    fn slots_for(n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (2 * n).next_power_of_two()
        }
    }
}

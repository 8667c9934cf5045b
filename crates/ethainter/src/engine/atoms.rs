//! Interned storage atoms: dense `u32` names for 256-bit slots and
//! memory offsets, and bitset relations over them.
//!
//! Fixpoint inner loops are dominated by membership tests over a small
//! universe known before the fixpoint starts (the constant slots and
//! mapping bases a program mentions). Soufflé's answer is term
//! interning plus bitset relations, and so is this module's: intern
//! every ground term into a dense atom once, during index construction,
//! then represent unary relations as bitsets indexed by atom instead of
//! hashing 32-byte keys.
//!
//! [`Interner`] is the front half, a stable injective `T → u32` map.
//! [`BitSet`] is the back half, a word-packed unary relation with O(1)
//! insert/contains. Monotone fixpoints only ever flip bits on, so
//! `insert` returning "was it new" doubles as the delta test that
//! drives worklist scheduling.

use std::collections::HashMap;
use std::hash::Hash;

/// A stable injective map from ground terms to dense `u32` atoms.
///
/// Interning the same term twice returns the same atom; atoms count up
/// from zero in first-seen order, so they index directly into
/// atom-width [`BitSet`]s and `Vec` side tables.
#[derive(Clone, Debug, Default)]
pub(crate) struct Interner<T> {
    atoms: HashMap<T, u32>,
    terms: Vec<T>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// An empty interner.
    pub(crate) fn new() -> Self {
        Interner {
            atoms: HashMap::new(),
            terms: Vec::new(),
        }
    }

    /// Interns `t`, returning its atom (allocating one when new).
    pub(crate) fn intern(&mut self, t: T) -> u32 {
        if let Some(&a) = self.atoms.get(&t) {
            return a;
        }
        let a = self.terms.len() as u32;
        self.terms.push(t.clone());
        self.atoms.insert(t, a);
        a
    }

    /// The term behind `atom`.
    ///
    /// # Panics
    ///
    /// Panics when `atom` was never issued by this interner.
    pub(crate) fn resolve(&self, atom: u32) -> &T {
        &self.terms[atom as usize]
    }

    /// Number of distinct terms interned.
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }
}

/// A word-packed unary relation over dense atoms.
///
/// Fixed capacity chosen at construction (the interner's universe
/// size); `insert` and `contains` are O(1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with room for atoms `0..capacity`.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Inserts `atom`; true when it was not already present.
    ///
    /// # Panics
    ///
    /// Panics when `atom` exceeds the constructed capacity — an
    /// out-of-universe atom is an interning bug, not a growth request.
    pub(crate) fn insert(&mut self, atom: u32) -> bool {
        let (w, b) = (atom as usize / 64, atom as usize % 64);
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.len += 1;
        true
    }

    /// Membership test. Atoms beyond capacity are absent, not errors
    /// (`contains` is a query, `insert` is an assertion).
    pub(crate) fn contains(&self, atom: u32) -> bool {
        let (w, b) = (atom as usize / 64, atom as usize % 64);
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of atoms present.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_stable_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        assert_eq!(i.intern("x"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(i.len(), 2);
        assert_eq!(*i.resolve(a), "x");
        assert_eq!(*i.resolve(b), "y");
    }

    #[test]
    fn bitset_insert_contains() {
        let mut s = BitSet::with_capacity(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "duplicate insert must report not-new");
        assert_eq!(s.len(), 4);
        assert!(s.contains(129));
        assert!(!s.contains(100));
        assert!(!s.contains(10_000), "out-of-capacity query is just absent");
        let present: Vec<u32> = (0..130).filter(|&a| s.contains(a)).collect();
        assert_eq!(present, vec![0, 63, 64, 129]);
    }

    #[test]
    fn bitset_zero_capacity() {
        let s = BitSet::with_capacity(0);
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn bitset_matches_hashset_reference() {
        // Deterministic pseudo-random walk, mirrored into a HashSet.
        let mut s = BitSet::with_capacity(512);
        let mut reference = std::collections::HashSet::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let atom = (x >> 33) as u32 % 512;
            assert_eq!(s.insert(atom), reference.insert(atom), "atom {atom}");
        }
        assert_eq!(s.len(), reference.len());
        for atom in 0..512 {
            assert_eq!(s.contains(atom), reference.contains(&atom), "atom {atom}");
        }
    }
}

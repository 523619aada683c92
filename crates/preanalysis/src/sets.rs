//! Data sets: compact sets of database item identifiers.
//!
//! Every relation in the pre-analysis (§3.2.2) reduces to intersections and
//! unions of item sets (`accesses`, `hasaccessed`, `mightaccess`), and the
//! scheduler evaluates them at every scheduling point, so the
//! representation matters: a fixed-width bitset over item ids gives O(n/64)
//! intersection tests with no allocation on the query path.

use std::fmt;

/// Identifier of a database item (an "object" in the paper's terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A set of [`ItemId`]s, stored as a bitset.
///
/// The universe is open-ended: the word vector grows on insert, and all
/// binary operations (including equality) treat missing high words as
/// zeros.
#[derive(Clone, Default)]
pub struct DataSet {
    words: Vec<u64>,
    len: usize,
}

impl PartialEq for DataSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for DataSet {}

impl DataSet {
    /// The empty set.
    pub fn new() -> Self {
        DataSet::default()
    }

    /// Set containing the given items.
    pub fn from_items<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        let mut s = DataSet::new();
        for item in items {
            s.insert(item);
        }
        s
    }

    /// Number of items in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Length of the word vector: the number of words a binary operation
    /// against this set may read (trailing zero words included).
    #[inline]
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// True iff the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, item: ItemId) -> bool {
        let (w, m) = Self::locate(item);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & m != 0 {
            false
        } else {
            self.words[w] |= m;
            self.len += 1;
            true
        }
    }

    /// Remove an item; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, item: ItemId) -> bool {
        let (w, m) = Self::locate(item);
        if w < self.words.len() && self.words[w] & m != 0 {
            self.words[w] &= !m;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        let (w, m) = Self::locate(item);
        w < self.words.len() && self.words[w] & m != 0
    }

    /// Remove all items.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// True iff `self` and `other` share no item. This is the hot query:
    /// "two transactions don't conflict if … they won't access overlapping
    /// data sets".
    #[inline]
    pub fn is_disjoint(&self, other: &DataSet) -> bool {
        // An empty side decides without touching either word vector; items
        // past min(words.len()) cannot overlap, so the scan stops there.
        if self.len == 0 || other.len == 0 {
            return true;
        }
        let n = self.words.len().min(other.words.len());
        let (a, b) = (&self.words[..n], &other.words[..n]);
        // 4-wide OR-accumulated AND: the branch-free block body is a
        // shape LLVM auto-vectorizes (two 128-bit or one 256-bit lane
        // per step), with one early-exit test per block instead of one
        // per word. The remainder tail is at most 3 words.
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (x, y) in (&mut ca).zip(&mut cb) {
            let hit = (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]);
            if hit != 0 {
                return false;
            }
        }
        ca.remainder()
            .iter()
            .zip(cb.remainder())
            .all(|(&x, &y)| x & y == 0)
    }

    /// True iff the sets share at least one item.
    #[inline]
    pub fn intersects(&self, other: &DataSet) -> bool {
        !self.is_disjoint(other)
    }

    /// True iff every item of `self` is in `other`.
    #[inline]
    pub fn is_subset(&self, other: &DataSet) -> bool {
        self.words.iter().enumerate().all(|(i, &a)| {
            let b = other.words.get(i).copied().unwrap_or(0);
            a & !b == 0
        })
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &DataSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, &b) in other.words.iter().enumerate() {
            self.words[i] |= b;
        }
        self.recount();
    }

    /// New set: union of the two.
    pub fn union(&self, other: &DataSet) -> DataSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// New set: intersection of the two.
    pub fn intersection(&self, other: &DataSet) -> DataSet {
        let n = self.words.len().min(other.words.len());
        let mut out = DataSet {
            words: (0..n).map(|i| self.words[i] & other.words[i]).collect(),
            len: 0,
        };
        out.recount();
        out
    }

    /// Iterate items in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = (wi * 64) as u32;
            BitIter { word, base }
        })
    }

    #[inline]
    fn locate(item: ItemId) -> (usize, u64) {
        ((item.0 / 64) as usize, 1u64 << (item.0 % 64))
    }

    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = ItemId;
    fn next(&mut self) -> Option<ItemId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(ItemId(self.base + tz))
    }
}

impl FromIterator<ItemId> for DataSet {
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        DataSet::from_items(iter)
    }
}

impl FromIterator<u32> for DataSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        DataSet::from_items(iter.into_iter().map(ItemId))
    }
}

impl fmt::Debug for DataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|i| i.0)).finish()
    }
}

impl fmt::Display for DataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[u32]) -> DataSet {
        items.iter().copied().collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = DataSet::new();
        assert!(s.insert(ItemId(3)));
        assert!(!s.insert(ItemId(3)), "duplicate insert reports false");
        assert!(s.insert(ItemId(200)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(ItemId(3)));
        assert!(s.contains(ItemId(200)));
        assert!(!s.contains(ItemId(4)));
        assert!(s.remove(ItemId(3)));
        assert!(!s.remove(ItemId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn disjoint_and_intersects() {
        let a = set(&[1, 2, 3]);
        let b = set(&[4, 5, 6]);
        let c = set(&[3, 4]);
        assert!(a.is_disjoint(&b));
        assert!(!a.intersects(&b));
        assert!(a.intersects(&c));
        assert!(b.intersects(&c));
        assert!(a.is_disjoint(&DataSet::new()));
        assert!(DataSet::new().is_disjoint(&a));
    }

    #[test]
    fn disjoint_across_word_boundaries() {
        let a = set(&[0, 64, 128]);
        let b = set(&[63, 127, 191]);
        assert!(a.is_disjoint(&b));
        let c = set(&[128]);
        assert!(a.intersects(&c));
        // Shorter word vector vs longer.
        let short = set(&[1]);
        let long = set(&[1, 1000]);
        assert!(short.intersects(&long));
        assert!(long.intersects(&short));
    }

    #[test]
    fn disjoint_wide_sets_exercise_the_blocked_path() {
        // > 4 words per side so the 4-wide blocks run; probe an overlap
        // in every block position and in the remainder tail.
        let a = set(&[0, 70, 140, 210, 280, 350, 420]);
        let b = set(&[1, 71, 141, 211, 281, 351, 421]);
        assert!(a.is_disjoint(&b));
        for &hit in &[0u32, 70, 140, 210, 280, 350, 420] {
            let mut c = b.clone();
            c.insert(ItemId(hit));
            assert!(a.intersects(&c), "missed overlap at {hit}");
            assert!(c.intersects(&a), "missed overlap at {hit} (flipped)");
        }
        // Exhaustive cross-check against the naive definition on a
        // pseudo-random population.
        let mut state = 1u64;
        let mut step = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % 500
        };
        for _ in 0..200 {
            let xs: Vec<u32> = (0..8).map(|_| step()).collect();
            let ys: Vec<u32> = (0..8).map(|_| step()).collect();
            let (x, y) = (set(&xs), set(&ys));
            let naive = xs.iter().all(|i| !ys.contains(i));
            assert_eq!(x.is_disjoint(&y), naive, "{xs:?} vs {ys:?}");
        }
    }

    #[test]
    fn union_and_intersection() {
        let a = set(&[1, 2, 3]);
        let b = set(&[3, 4]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), set(&[3]));
        assert_eq!(a.intersection(&set(&[9])), DataSet::new());
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn subset() {
        let a = set(&[1, 2]);
        let b = set(&[1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(DataSet::new().is_subset(&a));
        assert!(a.is_subset(&a));
        let big = set(&[1, 2, 500]);
        assert!(!big.is_subset(&b));
    }

    #[test]
    fn iteration_in_order() {
        let s = set(&[100, 1, 65, 2]);
        let v: Vec<u32> = s.iter().map(|i| i.0).collect();
        assert_eq!(v, vec![1, 2, 65, 100]);
    }

    #[test]
    fn clear_resets() {
        let mut s = set(&[1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(ItemId(1)));
    }

    #[test]
    fn display_format() {
        let s = set(&[2, 5]);
        assert_eq!(format!("{s}"), "{i2, i5}");
        assert_eq!(format!("{}", DataSet::new()), "{}");
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = set(&[1]);
        let mut b = set(&[1, 500]);
        b.remove(ItemId(500));
        // b's word vector is longer but semantically equal… our PartialEq
        // derives on words, so normalize by comparing via subset both ways.
        assert!(a.is_subset(&b) && b.is_subset(&a));
        assert_eq!(a.len(), b.len());
        // And operations behave identically:
        a.insert(ItemId(7));
        b.insert(ItemId(7));
        assert!(a.intersects(&b));
    }
}

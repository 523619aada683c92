//! The incremental scheduling core's acceleration state.
//!
//! The engine's hot loop — `pick_next` → `Policy::priority` →
//! `penalty_of_conflict` — used to rescan every transaction slot at every
//! scheduling point, giving O(active × P-list) set operations per event.
//! [`ConflictAccel`] makes the per-event cost proportional to *what
//! changed* instead:
//!
//! * an explicitly maintained, id-sorted **P-list** (the partially
//!   executed transactions) replaces the per-event scan of all slots;
//! * an item→transaction **reverse index** narrows a conflict event's
//!   walk to the transactions that share an item with it; each pair it
//!   yields is tested directly (`conflicts_with`, `is_unsafe_with`) —
//!   with the paper's small databases every set is one machine word, so
//!   the test is a couple of ANDs and is never memoized. Enumerating
//!   those sharers picks the cheaper of two equivalent routes per query
//!   (see `ConflictAccel::sharers`).
//!
//! Correctness contract: both maintained structures yield answers
//! **bit-identical** to a fresh recomputation. The engine's
//! [`CacheMode::Verify`] mode asserts this at every single use, and
//! `tests/incremental_equivalence.rs` drives it over randomized
//! workloads.

use std::cell::Cell;

use rtx_preanalysis::sets::DataSet;

use crate::txn::{is_unsafe_with, Transaction, TxnId};

/// How the engine evaluates priorities and conflict relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Use the maintained P-list, the reverse index and the priority
    /// indexes (the default; production path).
    #[default]
    Incremental,
    /// Recompute everything from scratch at every scheduling point — the
    /// pre-incremental reference engine. Used as the oracle in
    /// equivalence tests and as the "cold" side of benchmarks.
    AlwaysRecompute,
    /// Run incrementally but recompute fresh alongside every maintained
    /// answer and index key, and assert agreement. Slow; tests only.
    Verify,
}

/// Incrementally maintained conflict state (see the module docs).
///
/// Owned by the engine; policies reach it read-only through
/// [`crate::policy::SystemView`]. All mutation goes through the engine's
/// state-transition bookkeeping, which is what keeps the P-list and the
/// reverse index in step with the transactions.
pub struct ConflictAccel {
    /// Partially executed transactions, sorted by id (ascending). Because
    /// the engine's `active` list is always in arrival = id order, this
    /// reproduces the exact iteration order of the full-scan P-list.
    plist: Vec<TxnId>,
    /// Pair tests performed (`conflicts` plus `is_unsafe` calls).
    pair_checks: Cell<u64>,
    /// Item → admitted transactions whose `might_access` contains the
    /// item, each list ascending by id. Because `accessed ⊆ might_access`
    /// (decision narrowing keeps the already-taken prefix) this is a
    /// reverse index over *every* set the pair predicates read, so any
    /// pair with a true `conflicts_with`/`is_unsafe_with` verdict shares
    /// at least one list.
    item_txns: Vec<Vec<TxnId>>,
    /// Per-transaction snapshot of the footprint currently registered in
    /// `item_txns`, diffed on reindex so membership updates touch only
    /// the items that changed.
    indexed_items: Vec<DataSet>,
    /// Reverse-index list entries read plus `active` slot-words scanned
    /// by [`Self::sharers`] — the deterministic cost of enumeration.
    sharer_entries: Cell<u64>,
}

impl ConflictAccel {
    pub(crate) fn new(capacity: usize, db_size: usize) -> Self {
        ConflictAccel {
            plist: Vec::new(),
            pair_checks: Cell::new(0),
            item_txns: vec![Vec::new(); db_size],
            indexed_items: Vec::with_capacity(capacity),
            sharer_entries: Cell::new(0),
        }
    }

    /// Register a newly arrived transaction (ids are dense and arrive in
    /// order, so its reverse-index snapshot is a push).
    pub(crate) fn register(&mut self, id: TxnId) {
        debug_assert_eq!(id.0 as usize, self.indexed_items.len());
        self.indexed_items.push(DataSet::new());
    }

    /// (Re)register `id` in the item→transaction reverse index under
    /// `footprint` (its current `might_access`). Diffs against the
    /// previous footprint so only changed items' lists move. Only
    /// *admitted* transactions may be indexed — the engine calls this on
    /// admission, decision narrowing and restart re-widening, and
    /// [`Self::drop_index`] on departure.
    pub(crate) fn reindex(&mut self, id: TxnId, footprint: &DataSet) {
        let slot = id.0 as usize;
        let old = std::mem::take(&mut self.indexed_items[slot]);
        for item in old.iter() {
            if !footprint.contains(item) {
                let list = &mut self.item_txns[item.0 as usize];
                let pos = list
                    .binary_search(&id)
                    .expect("indexed item lists mirror the stored footprint");
                list.remove(pos);
            }
        }
        for item in footprint.iter() {
            if !old.contains(item) {
                let list = &mut self.item_txns[item.0 as usize];
                if let Err(pos) = list.binary_search(&id) {
                    list.insert(pos, id);
                }
            }
        }
        self.indexed_items[slot] = footprint.clone();
    }

    /// Remove `id` from the reverse index (commit, or any other
    /// departure from the active set).
    pub(crate) fn drop_index(&mut self, id: TxnId) {
        let slot = id.0 as usize;
        let old = std::mem::take(&mut self.indexed_items[slot]);
        for item in old.iter() {
            let list = &mut self.item_txns[item.0 as usize];
            let pos = list
                .binary_search(&id)
                .expect("indexed item lists mirror the stored footprint");
            list.remove(pos);
        }
    }

    /// Collect into `out` every indexed transaction whose registered
    /// footprint intersects `items`, ascending by id. This is a sound
    /// superset of the transactions that can hold a true
    /// `conflicts_with` or (either-direction) `is_unsafe_with` verdict
    /// against a transaction whose sets are covered by `items`: both
    /// predicates require a shared item between one side's
    /// `accessed`/`written`/`might_access` and the other's, and every
    /// such set is a subset of the registered `might_access`.
    ///
    /// `active` must hold every indexed transaction, strictly ascending
    /// by id (the engine's active list). Two routes give the same
    /// answer; the cheaper one is picked by comparing the list *volume*
    /// `Σ |item_txns[i]|` over `items`, computed in O(|items|), with the
    /// scan's cost, `active.len()` footprint tests of up to
    /// `items.word_len()` words each:
    ///
    /// * volume larger (few hot items shared by most of the system):
    ///   scan `active` and keep each transaction whose footprint
    ///   intersects `items` — already in id order;
    /// * otherwise concatenate the lists, sort and dedup.
    ///
    /// The chosen route's cost (list entries, or scanned slots × words)
    /// is tallied in [`Self::sharer_entries`].
    pub(crate) fn sharers(&self, items: &DataSet, active: &[TxnId], out: &mut Vec<TxnId>) {
        let volume: usize = items
            .iter()
            .filter_map(|item| self.item_txns.get(item.0 as usize))
            .map(Vec::len)
            .sum();
        let scan = active.len() * items.word_len().max(1);
        let read = if volume > scan {
            self.sharers_by_scan(items, active, out);
            scan
        } else {
            self.sharers_by_walk(items, out);
            volume
        };
        self.sharer_entries
            .set(self.sharer_entries.get() + read as u64);
    }

    /// [`Self::sharers`] by filtering `active` on registered footprint.
    pub(crate) fn sharers_by_scan(&self, items: &DataSet, active: &[TxnId], out: &mut Vec<TxnId>) {
        out.clear();
        out.extend(
            active
                .iter()
                .copied()
                .filter(|x| self.indexed_items[x.0 as usize].intersects(items)),
        );
    }

    /// [`Self::sharers`] by walking `items`' reverse-index lists.
    pub(crate) fn sharers_by_walk(&self, items: &DataSet, out: &mut Vec<TxnId>) {
        out.clear();
        for item in items.iter() {
            if let Some(list) = self.item_txns.get(item.0 as usize) {
                out.extend_from_slice(list);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// A lock grant grew `id`'s `accessed`/`written` sets. Joins the
    /// P-list on the first grant since (re)start.
    ///
    /// The growth may flip `is_unsafe(id, X)` for other transactions `X`,
    /// but that can only *lower* their `ConflictState` priorities (the
    /// penalty gains nonnegative terms), so nothing is walked: the
    /// engine's lazy heap tolerates stale-high keys and revalidates on
    /// pop. Only clears — which *raise* priorities — get an eager walk
    /// (see [`Self::note_sets_cleared`]).
    pub(crate) fn note_access_growth(&mut self, id: TxnId, was_partial: bool) {
        if !was_partial {
            let pos = self.plist.binary_search(&id).unwrap_err();
            self.plist.insert(pos, id);
        }
    }

    /// `id`'s access sets were cleared (abort/restart or commit) and — on
    /// restart with a decision point — `might_access` was re-widened. The
    /// transaction leaves the P-list.
    ///
    /// The engine performs its clear-repair walk *before* this call,
    /// while `id`'s sets still describe the contribution being removed.
    pub(crate) fn note_sets_cleared(&mut self, id: TxnId) {
        let pos = self
            .plist
            .binary_search(&id)
            .expect("cleared transaction held locks, so it was on the P-list");
        self.plist.remove(pos);
    }

    /// The maintained P-list, ascending by id.
    pub(crate) fn plist(&self) -> &[TxnId] {
        &self.plist
    }

    pub(crate) fn plist_len(&self) -> usize {
        self.plist.len()
    }

    /// `is_unsafe_with(partial, candidate)` (directional), tallied in
    /// `pair_checks`.
    pub(crate) fn is_unsafe(&self, partial: &Transaction, candidate: &Transaction) -> bool {
        self.pair_checks.set(self.pair_checks.get() + 1);
        is_unsafe_with(partial, candidate)
    }

    /// Symmetric `a.conflicts_with(b)`, evaluated lower id first and
    /// tallied in `pair_checks`.
    pub(crate) fn conflicts(&self, a: &Transaction, b: &Transaction) -> bool {
        self.pair_checks.set(self.pair_checks.get() + 1);
        let (lo, hi) = if a.id <= b.id { (a, b) } else { (b, a) };
        lo.conflicts_with(hi)
    }

    pub(crate) fn pair_checks(&self) -> u64 {
        self.pair_checks.get()
    }

    pub(crate) fn sharer_entries(&self) -> u64 {
        self.sharer_entries.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Stage, TxnState};
    use rtx_preanalysis::sets::DataSet;
    use rtx_preanalysis::table::TypeId;
    use rtx_preanalysis::ItemId;
    use rtx_sim::time::{SimDuration, SimTime};

    fn mk(id: u32, might: &[u32]) -> Transaction {
        Transaction {
            id: TxnId(id),
            ty: TypeId(0),
            arrival: SimTime::ZERO,
            deadline: SimTime::from_ms(100.0),
            resource_time: SimDuration::from_ms(80.0),
            items: might.iter().map(|&i| ItemId(i)).collect(),
            io_pattern: vec![],
            modes: Vec::new(),
            update_time: SimDuration::from_ms(4.0),
            might_access: might.iter().map(|&i| ItemId(i)).collect(),
            state: TxnState::Ready,
            progress: 0,
            stage: Stage::Lock,
            cpu_left: SimDuration::ZERO,
            burst_start: SimTime::ZERO,
            accessed: DataSet::new(),
            written: DataSet::new(),
            service: SimDuration::ZERO,
            restarts: 0,
            waiting_for: None,
            decision: None,
            criticality: 0,
            doomed: false,
            doomed_at: SimTime::ZERO,
            io_retries: 0,
            retry_token: 0,
            finish: None,
        }
    }

    #[test]
    fn plist_stays_sorted() {
        let mut a = ConflictAccel::new(4, 64);
        for i in 0..4 {
            a.register(TxnId(i));
        }
        a.note_access_growth(TxnId(2), false);
        a.note_access_growth(TxnId(0), false);
        a.note_access_growth(TxnId(3), false);
        assert_eq!(a.plist(), &[TxnId(0), TxnId(2), TxnId(3)]);
        a.note_sets_cleared(TxnId(2));
        assert_eq!(a.plist(), &[TxnId(0), TxnId(3)]);
        assert_eq!(a.plist_len(), 2);
    }

    #[test]
    fn growth_of_a_partial_does_not_duplicate() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.note_access_growth(TxnId(0), false);
        a.note_access_growth(TxnId(0), true);
        assert_eq!(a.plist(), &[TxnId(0)]);
    }

    #[test]
    fn is_unsafe_sees_access_growth_at_once() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.register(TxnId(1));
        let mut partial = mk(0, &[1, 2]);
        let candidate = mk(1, &[1, 9]);
        // No overlap with accessed yet → safe, however often asked.
        assert!(!a.is_unsafe(&partial, &candidate));
        assert!(!a.is_unsafe(&partial, &candidate));
        assert_eq!(a.pair_checks(), 2);
        // The partial writes item 1, which the candidate might access:
        // the very next test sees the grown sets.
        partial.accessed.insert(ItemId(1));
        partial.written.insert(ItemId(1));
        a.note_access_growth(TxnId(0), false);
        assert!(a.is_unsafe(&partial, &candidate));
        assert_eq!(a.pair_checks(), 3);
    }

    #[test]
    fn conflicts_is_symmetric_and_sees_narrowing_at_once() {
        let mut a = ConflictAccel::new(2, 64);
        a.register(TxnId(0));
        a.register(TxnId(1));
        let mut x = mk(0, &[1, 2]);
        let y = mk(1, &[2, 3]);
        assert!(a.conflicts(&x, &y));
        assert_eq!(a.conflicts(&x, &y), a.conflicts(&y, &x));
        // Narrow x away from the overlap; the very next test sees the
        // narrowed set, and the verdict flips both ways.
        x.might_access = DataSet::from_items([ItemId(1)]);
        assert!(!a.conflicts(&x, &y));
        assert_eq!(a.conflicts(&x, &y), a.conflicts(&y, &x));
        assert_eq!(a.pair_checks(), 6);
    }

    #[test]
    fn reverse_index_tracks_footprints() {
        let mut a = ConflictAccel::new(3, 64);
        for i in 0..3 {
            a.register(TxnId(i));
        }
        let mut active = vec![TxnId(0), TxnId(1), TxnId(2)];
        let mut out = Vec::new();
        a.reindex(TxnId(0), &DataSet::from_items([ItemId(1), ItemId(2)]));
        a.reindex(TxnId(1), &DataSet::from_items([ItemId(2), ItemId(3)]));
        a.reindex(TxnId(2), &DataSet::from_items([ItemId(9)]));
        a.sharers(&DataSet::from_items([ItemId(2)]), &active, &mut out);
        assert_eq!(out, vec![TxnId(0), TxnId(1)]);
        // Narrowing away from item 2 drops that membership only.
        a.reindex(TxnId(0), &DataSet::from_items([ItemId(1)]));
        a.sharers(
            &DataSet::from_items([ItemId(2), ItemId(9)]),
            &active,
            &mut out,
        );
        assert_eq!(out, vec![TxnId(1), TxnId(2)]);
        // Departure empties all of the transaction's list memberships.
        a.drop_index(TxnId(1));
        active.retain(|&x| x != TxnId(1));
        let items = DataSet::from_items([ItemId(1), ItemId(2), ItemId(3)]);
        a.sharers(&items, &active, &mut out);
        assert_eq!(out, vec![TxnId(0)]);
        // Multi-item queries dedup across lists and stay id-ascending.
        a.reindex(TxnId(1), &DataSet::from_items([ItemId(1), ItemId(9)]));
        active.insert(1, TxnId(1));
        a.sharers(
            &DataSet::from_items([ItemId(1), ItemId(9)]),
            &active,
            &mut out,
        );
        assert_eq!(out, vec![TxnId(0), TxnId(1), TxnId(2)]);
    }

    /// `n` indexed transactions; transaction `i` registers `footprint(i)`.
    fn indexed(n: u32, footprint: impl Fn(u32) -> Vec<u32>) -> (ConflictAccel, Vec<TxnId>) {
        let mut a = ConflictAccel::new(n as usize, 256);
        for i in 0..n {
            a.register(TxnId(i));
            let items = footprint(i).into_iter().map(ItemId).collect::<DataSet>();
            a.reindex(TxnId(i), &items);
        }
        (a, (0..n).map(TxnId).collect())
    }

    fn both_routes(a: &ConflictAccel, items: &DataSet, active: &[TxnId]) -> Vec<TxnId> {
        let (mut scan, mut walk) = (Vec::new(), Vec::new());
        a.sharers_by_scan(items, active, &mut scan);
        a.sharers_by_walk(items, &mut walk);
        assert_eq!(scan, walk, "enumeration routes diverged");
        scan
    }

    #[test]
    fn hot_items_take_the_active_scan() {
        // Txns 0–3 share items 0 and 1: the two lists hold 8 entries,
        // more than the 6 active slots, so the scan is cheaper — and it
        // keeps only the footprints that meet the query.
        let (a, active) = indexed(6, |i| {
            if i < 4 {
                vec![0, 1, 10 + i]
            } else {
                vec![20 + i]
            }
        });
        let items = DataSet::from_items([ItemId(0), ItemId(1)]);
        let mut out = Vec::new();
        a.sharers(&items, &active, &mut out);
        assert_eq!(out, active[..4]);
        assert_eq!(a.sharer_entries(), 6, "scan reads one slot per active txn");
        assert_eq!(out, both_routes(&a, &items, &active));
        let items = DataSet::from_items([ItemId(0), ItemId(1), ItemId(25), ItemId(63)]);
        a.sharers(&items, &active, &mut out);
        assert_eq!(out, vec![TxnId(0), TxnId(1), TxnId(2), TxnId(3), TxnId(5)]);
        assert_eq!(a.sharer_entries(), 6 + 6);
        assert_eq!(out, both_routes(&a, &items, &active));
    }

    #[test]
    fn cold_items_take_the_list_walk() {
        // Disjoint footprints, registered so the item lists come out of
        // id order when concatenated: item 1 holds txn 3, item 5 txn 0.
        let (a, active) = indexed(8, |i| vec![[5, 7, 9, 1, 11, 13, 15, 17][i as usize]]);
        let items = DataSet::from_items([ItemId(1), ItemId(5)]);
        let mut out = Vec::new();
        a.sharers(&items, &active, &mut out);
        assert_eq!(out, vec![TxnId(0), TxnId(3)], "sorted after the walk");
        assert_eq!(
            a.sharer_entries(),
            2,
            "walk reads one entry per list member"
        );
        assert_eq!(out, both_routes(&a, &items, &active));
        // Overlapping lists are deduped: volume 3 ≤ 8 active.
        let (a, active) = indexed(8, |i| if i < 2 { vec![2, 3] } else { vec![30 + i] });
        let items = DataSet::from_items([ItemId(2), ItemId(3), ItemId(34)]);
        a.sharers(&items, &active, &mut out);
        assert_eq!(out, vec![TxnId(0), TxnId(1), TxnId(4)]);
        assert_eq!(a.sharer_entries(), 5);
        assert_eq!(out, both_routes(&a, &items, &active));
    }

    #[test]
    fn wide_queries_weight_the_scan_by_words() {
        // Txns 0–2 share items 0 and 1; txn 3 holds item 200 alone.
        let (a, active) = indexed(4, |i| if i < 3 { vec![0, 1] } else { vec![200] });
        let mut out = Vec::new();
        // One word wide: 6 list entries outweigh 4 slot tests.
        let narrow = DataSet::from_items([ItemId(0), ItemId(1)]);
        a.sharers(&narrow, &active, &mut out);
        assert_eq!(out, active[..3]);
        assert_eq!(a.sharer_entries(), 4, "scanned 4 slots of 1 word");
        // Item 200 widens the query to 4 words: 7 list entries beat
        // 4 slots × 4 words, so the lists are walked.
        let wide = DataSet::from_items([ItemId(0), ItemId(1), ItemId(200)]);
        assert_eq!(wide.word_len(), 4);
        a.sharers(&wide, &active, &mut out);
        assert_eq!(out, active);
        assert_eq!(a.sharer_entries(), 4 + 7, "walked 7 list entries");
        assert_eq!(out, both_routes(&a, &wide, &active));
    }
}

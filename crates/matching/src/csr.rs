//! [`FixedCsr`] — a reusable fixed-capacity CSR arena.
//!
//! The dynamic engine's repair loop keeps, per node, the list of currently
//! selected incident edges (the mirror `heavier_selected` scans). A
//! `Vec<Vec<EdgeId>>` works but costs one heap allocation per node and
//! scatters rows across the allocator; at n=10⁶⁺ the pointer chasing and
//! allocator traffic dominate the repair hot path. `FixedCsr` is the
//! structure-of-arrays replacement: one flat `u32` item array laid out in
//! CSR form, with a *fixed capacity per row* chosen at construction (for a
//! selected-edge mirror, the node's degree — a node can never have more
//! selected incident edges than incident edges).
//!
//! Rows support O(1) push, O(row) unordered remove, and O(1) truncation;
//! no operation allocates after construction, which is what makes the
//! engine's steady-state zero-allocation batch path possible (DESIGN.md
//! §11). Rows are addressed by a dense `usize` index — the engine uses
//! node ids.

/// A flat CSR arena: `rows` rows, row `r` holding up to `cap(r)` `u32`
/// items in insertion order. See the module docs for the design intent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedCsr {
    /// `offsets[r]..offsets[r] + lens[r]` indexes `items` for row `r`;
    /// `offsets[r + 1] - offsets[r]` is the row's fixed capacity.
    offsets: Vec<u32>,
    lens: Vec<u32>,
    items: Vec<u32>,
}

impl FixedCsr {
    /// Builds an empty arena with the given per-row capacities.
    ///
    /// # Panics
    /// Panics if the total capacity exceeds `u32::MAX` items.
    pub fn with_capacities<I: IntoIterator<Item = u32>>(caps: I) -> Self {
        let mut offsets = vec![0u32];
        let mut total = 0u64;
        for c in caps {
            total += c as u64;
            offsets.push(u32::try_from(total).expect("FixedCsr capacity exceeds u32"));
        }
        let lens = vec![0u32; offsets.len() - 1];
        let items = vec![0u32; total as usize];
        FixedCsr { offsets, lens, items }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.lens.len()
    }

    /// The fixed capacity of row `r`.
    #[inline]
    pub fn capacity(&self, r: usize) -> usize {
        (self.offsets[r + 1] - self.offsets[r]) as usize
    }

    /// Number of items currently in row `r`.
    #[inline]
    pub fn len(&self, r: usize) -> usize {
        self.lens[r] as usize
    }

    /// `true` iff row `r` is empty.
    #[inline]
    pub fn is_empty(&self, r: usize) -> bool {
        self.lens[r] == 0
    }

    /// The items of row `r`, in insertion order (unordered after removes).
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        let lo = self.offsets[r] as usize;
        &self.items[lo..lo + self.lens[r] as usize]
    }

    /// Appends `v` to row `r`.
    ///
    /// # Panics
    /// Panics if the row is at capacity — for a selected-edge mirror that
    /// means a node holds more selected edges than incident edges, i.e.
    /// corruption, so failing loudly beats silent truncation.
    #[inline]
    pub fn push(&mut self, r: usize, v: u32) {
        let len = self.lens[r];
        let pos = self.offsets[r] + len;
        assert!(pos < self.offsets[r + 1], "FixedCsr row {r} over capacity");
        self.items[pos as usize] = v;
        self.lens[r] = len + 1;
    }

    /// `true` iff row `r` contains `v` (linear scan — rows are at most a
    /// node's degree, and the mirror rows the engine keeps are at most a
    /// quota deep).
    #[inline]
    pub fn contains(&self, r: usize, v: u32) -> bool {
        self.row(r).contains(&v)
    }

    /// Appends `v` to row `r` unless the row already contains it.
    /// Returns `true` iff the item was inserted. Same capacity panic as
    /// [`FixedCsr::push`]; not used on the repair hot path (which relies
    /// on flip discipline, not dedup) — this is for cold-path callers
    /// that aggregate unordered edge sets.
    #[inline]
    pub fn push_unique(&mut self, r: usize, v: u32) -> bool {
        if self.contains(r, v) {
            return false;
        }
        self.push(r, v);
        true
    }

    /// Removes the first occurrence of `v` from row `r` by swapping the
    /// last item into its slot (order not preserved). Returns `true` iff
    /// `v` was present.
    #[inline]
    pub fn remove(&mut self, r: usize, v: u32) -> bool {
        let lo = self.offsets[r] as usize;
        let len = self.lens[r] as usize;
        let row = &mut self.items[lo..lo + len];
        if let Some(pos) = row.iter().position(|&x| x == v) {
            row.swap(pos, len - 1);
            self.lens[r] -= 1;
            true
        } else {
            false
        }
    }

    /// Empties every row (capacities unchanged, no deallocation).
    pub fn clear(&mut self) {
        self.lens.fill(0);
    }

    /// Empties row `r`.
    #[inline]
    pub fn clear_row(&mut self, r: usize) {
        self.lens[r] = 0;
    }

    /// Total items across all rows.
    pub fn total_len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_remove_roundtrip() {
        let mut c = FixedCsr::with_capacities([2, 0, 3]);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.capacity(0), 2);
        assert_eq!(c.capacity(1), 0);
        c.push(0, 7);
        c.push(0, 9);
        c.push(2, 1);
        assert_eq!(c.row(0), &[7, 9]);
        assert_eq!(c.len(2), 1);
        assert!(c.remove(0, 7));
        assert_eq!(c.row(0), &[9]);
        assert!(!c.remove(0, 7), "second remove finds nothing");
        assert!(c.is_empty(1));
        assert_eq!(c.total_len(), 2);
    }

    #[test]
    fn remove_swaps_last_into_place() {
        let mut c = FixedCsr::with_capacities([4]);
        for v in [1, 2, 3, 4] {
            c.push(0, v);
        }
        assert!(c.remove(0, 2));
        assert_eq!(c.row(0), &[1, 4, 3]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c = FixedCsr::with_capacities([1, 2]);
        c.push(0, 5);
        c.push(1, 6);
        c.clear();
        assert_eq!(c.total_len(), 0);
        assert_eq!(c.capacity(1), 2);
        c.push(0, 8);
        assert_eq!(c.row(0), &[8]);
        c.clear_row(0);
        assert!(c.is_empty(0));
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn overfull_row_panics() {
        let mut c = FixedCsr::with_capacities([1]);
        c.push(0, 1);
        c.push(0, 2);
    }

    #[test]
    fn empty_arena() {
        let c = FixedCsr::with_capacities(std::iter::empty());
        assert_eq!(c.rows(), 0);
        assert_eq!(c.total_len(), 0);
    }

    #[test]
    fn at_capacity_insert_fills_exactly() {
        let mut c = FixedCsr::with_capacities([3]);
        for v in [10, 20, 30] {
            c.push(0, v);
        }
        assert_eq!(c.len(0), c.capacity(0), "row filled to the brim");
        assert_eq!(c.row(0), &[10, 20, 30]);
        // A full row still supports remove + re-push at capacity.
        assert!(c.remove(0, 20));
        c.push(0, 40);
        assert_eq!(c.len(0), 3);
        assert!(c.contains(0, 40));
    }

    #[test]
    fn duplicate_edges_are_rejected_by_push_unique() {
        let mut c = FixedCsr::with_capacities([2, 2]);
        assert!(c.push_unique(0, 7));
        assert!(!c.push_unique(0, 7), "duplicate rejected");
        assert_eq!(c.len(0), 1, "rejection leaves the row unchanged");
        assert!(c.push_unique(1, 7), "rows are independent");
        assert!(c.push_unique(0, 8));
        assert!(!c.push_unique(0, 8));
        assert_eq!(c.row(0), &[7, 8]);
        // Rejection must not consume capacity: the row is now full, and
        // a duplicate still answers false instead of panicking.
        assert!(!c.push_unique(0, 7));
    }

    #[test]
    fn clear_then_reuse_preserves_layout() {
        let mut c = FixedCsr::with_capacities([2, 1, 3]);
        c.push(0, 1);
        c.push(1, 2);
        c.push(2, 3);
        c.push(2, 4);
        let (rows, caps): (usize, Vec<usize>) =
            (c.rows(), (0..c.rows()).map(|r| c.capacity(r)).collect());
        c.clear();
        assert_eq!(c.rows(), rows);
        assert_eq!((0..c.rows()).map(|r| c.capacity(r)).collect::<Vec<_>>(), caps);
        assert!((0..c.rows()).all(|r| c.is_empty(r)));
        // Full reuse after clear: every row refills to capacity.
        for r in 0..c.rows() {
            for v in 0..c.capacity(r) as u32 {
                c.push(r, 100 + v);
            }
            assert_eq!(c.len(r), c.capacity(r));
        }
        assert_eq!(c.total_len(), 6);
    }
}

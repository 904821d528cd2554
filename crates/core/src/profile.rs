//! Partial distance profiles: the `listDP` structure of paper Algorithm 3.
//!
//! For each distance profile `j`, VALMOD retains only the `p` entries with
//! the smallest Eq. 2 lower bounds, in a bounded max-heap (largest LB at the
//! root, so the worst retained entry is evicted first). Because all entries
//! of a profile share the σ-ratio scaling factor, the anchor-time ordering
//! by [`crate::lb::lb_key`] *is* the ordering at every later length.
//!
//! Entries are ordered by the *strict total order* (`lb_key` via
//! `f64::total_cmp`, then neighbour index). Two distinct entries of one
//! profile never compare equal (the neighbour is unique per owner), so which
//! entries survive an over-full heap is independent of the order they were
//! offered in — row-order and diagonal-order harvests retain the same set.

use valmod_mp::distance::{dist_from_qt, is_flat};
use valmod_mp::ProfiledSeries;

use crate::harvest::key_for_pair;
use crate::lb::lb_scale;

/// One retained entry of a partial distance profile: the pair
/// (profile owner `j`, neighbour), with enough state to advance its dot
/// product and to scale its lower bound to the next length in O(1).
///
/// The true distance is not stored: it is a pure function of `qt` and the
/// two subsequences' statistics at the entry's length
/// ([`PartialProfile::entry_dist`]), and the advance computes it only for
/// the entries a row's answer needs. Packed to 20 bytes (8-byte fields at a
/// 4-byte alignment), so `listDP` holds `p` entries per row in `20p` bytes.
/// The fields are read by value only.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
pub struct DpEntry {
    /// Dot product `⟨T_{neighbor,L}, T_{j,L}⟩` in the centred domain, for the
    /// length `L` the entry was last advanced to; `NaN` once the pair is
    /// gone (its neighbour slid off the end or entered the exclusion zone).
    pub(crate) qt: f64,
    /// Squared anchor LB component (`ℓ` or `ℓ(1 − q²)` at the anchor length);
    /// the heap key.
    pub(crate) lb_key: f64,
    /// Neighbour offset (`i` in the paper's `d_{i,j}`); a harvest refuses
    /// series with `2³²` or more rows.
    pub(crate) neighbor: u32,
}

impl DpEntry {
    /// An entry for `neighbor` with dot product `qt` and heap key `lb_key`.
    ///
    /// # Panics
    /// If `neighbor` does not fit in `u32`.
    #[inline]
    pub fn new(neighbor: usize, qt: f64, lb_key: f64) -> Self {
        let neighbor = u32::try_from(neighbor).expect("neighbour offsets fit in u32");
        DpEntry { qt, lb_key, neighbor }
    }

    /// Neighbour offset.
    #[inline]
    pub fn neighbor(&self) -> usize {
        self.neighbor as usize
    }

    /// Dot product at the entry's current length (`NaN` once dead).
    #[inline]
    pub fn qt(&self) -> f64 {
        self.qt
    }

    /// The heap key: the squared anchor LB component.
    #[inline]
    pub fn lb_key(&self) -> f64 {
        self.lb_key
    }

    /// The anchor LB value `sqrt(lb_key)`.
    #[inline]
    pub fn lb_base(&self) -> f64 {
        self.lb_key.sqrt()
    }

    /// Whether the pair still exists at the entry's current length.
    #[inline]
    pub fn is_live(&self) -> bool {
        !self.qt.is_nan()
    }
}

/// The heap slots worth reserving for a profile of `capacity` entries over
/// `rows` subsequences: a row has at most `rows − 1` neighbours, however
/// large `p` is. A heap that later outgrows it (the rows of a series that
/// grows) reallocates like any `Vec`. This bounds only the reservation:
/// with `p ≥ rows − 1` no heap ever fills, so `listDP` still holds every
/// neighbour of every row, `O(rows²)` entries.
#[inline]
fn reservation(capacity: usize, rows: usize) -> usize {
    capacity.min(rows.saturating_sub(1))
}

/// Strict total heap order: `lb_key` (via `total_cmp`), ties broken by the
/// neighbour index. With this order, eviction from a full heap is
/// deterministic regardless of offer order.
#[inline]
fn heap_cmp(a: &DpEntry, b: &DpEntry) -> std::cmp::Ordering {
    let (ka, kb, na, nb) = (a.lb_key, b.lb_key, a.neighbor, b.neighbor);
    ka.total_cmp(&kb).then(na.cmp(&nb))
}

/// Whether `a` ranks strictly *worse* (greater) than `b` under
/// [`heap_cmp`].
#[inline]
fn heap_gt(a: &DpEntry, b: &DpEntry) -> bool {
    heap_cmp(a, b) == std::cmp::Ordering::Greater
}

/// The partial distance profile of one subsequence: its `p` smallest-LB
/// entries plus the anchor state needed to scale those LBs to any length.
#[derive(Debug, Clone)]
pub struct PartialProfile {
    /// Offset of the profile owner (`j`).
    pub owner: usize,
    /// Length at which the retained entries were last advanced.
    pub current_l: usize,
    /// Length at which the entries were harvested (LB anchor).
    pub anchor_l: usize,
    /// `σ(T_{owner, anchor_l})` — numerator of the Eq. 2 σ-ratio.
    pub anchor_sigma: f64,
    /// Max-heap by `lb_key`; at most `capacity` entries.
    entries: Vec<DpEntry>,
    capacity: usize,
    /// Whether `entries` is sorted descending under the heap order (still
    /// a max-heap), so a scan from the end meets the bounds in ascending
    /// order. Cleared by every change to the entry set.
    sorted: bool,
}

impl PartialProfile {
    /// Creates an empty profile anchored at `anchor_l` for one of the
    /// `rows` subsequences of the series at that length. A row has at most
    /// `rows − 1` neighbours, so no more slots than that are reserved up
    /// front: an oversized `p` costs nothing until entries arrive.
    pub fn new(
        owner: usize,
        anchor_l: usize,
        anchor_sigma: f64,
        capacity: usize,
        rows: usize,
    ) -> Self {
        assert!(capacity > 0, "profile capacity p must be positive");
        PartialProfile {
            owner,
            current_l: anchor_l,
            anchor_l,
            anchor_sigma,
            entries: Vec::with_capacity(reservation(capacity, rows)),
            capacity,
            sorted: false,
        }
    }

    /// Rebuilds a profile from entries already in heap order, exactly as
    /// [`PartialProfile::entries`] listed them.
    fn from_heap(
        owner: usize,
        anchor_l: usize,
        anchor_sigma: f64,
        capacity: usize,
        entries: Vec<DpEntry>,
    ) -> Self {
        debug_assert!(entries.len() <= capacity);
        debug_assert!((1..entries.len()).all(|k| !heap_gt(&entries[k], &entries[(k - 1) / 2])));
        PartialProfile {
            owner,
            current_l: anchor_l,
            anchor_l,
            anchor_sigma,
            entries,
            capacity,
            sorted: false,
        }
    }

    /// Number of retained entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the heap holds its full `p` entries. When it does not, *every*
    /// finite pair of the profile was retained, so the profile is complete.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// The capacity `p` the profile was created with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained entries, heap-ordered (no particular sort).
    #[inline]
    pub fn entries(&self) -> &[DpEntry] {
        &self.entries
    }

    /// Mutable access for the O(1) per-length advance.
    #[inline]
    pub(crate) fn entries_mut(&mut self) -> &mut [DpEntry] {
        &mut self.entries
    }

    /// The true z-normalised distance of `entry` (one of this profile's)
    /// at [`PartialProfile::current_l`], from its dot product and the two
    /// subsequences' statistics — the bits the advance and the kernel
    /// compute. `+∞` for a dead entry.
    pub fn entry_dist(&self, ps: &ProfiledSeries, entry: &DpEntry) -> f64 {
        if !entry.is_live() {
            return f64::INFINITY;
        }
        let (l, owner, i) = (self.current_l, self.owner, entry.neighbor());
        dist_from_qt(
            entry.qt(),
            l,
            ps.mean_c(i, l),
            ps.std(i, l),
            ps.mean_c(owner, l),
            ps.std(owner, l),
        )
    }

    /// Sorts the entries descending under the heap order, once per anchor:
    /// a descending array is still a valid max-heap, and scanned from the
    /// end it lists the Eq. 2 bounds in ascending order at every length.
    pub(crate) fn sort_for_scan(&mut self) {
        if !self.sorted {
            self.entries.sort_unstable_by(|a, b| heap_cmp(b, a));
            self.sorted = true;
        }
    }

    /// The largest retained `lb_key` (heap root), or `None` when empty.
    #[inline]
    pub fn max_lb_key(&self) -> Option<f64> {
        self.entries.first().map(|e| e.lb_key())
    }

    /// The threshold `maxLB` at length `l`: the largest retained anchor LB,
    /// scaled by the σ-ratio. Unstored pairs of this profile all have true
    /// distance ≥ this value (heap property + Eq. 2 rank preservation).
    ///
    /// Returns `+∞` when the heap never filled (then there *are* no unstored
    /// pairs and the profile is complete).
    pub fn max_lb_at(&self, sigma_new: f64) -> f64 {
        if !self.is_full() {
            return f64::INFINITY;
        }
        match self.max_lb_key() {
            Some(key) => lb_scale(key.sqrt(), self.anchor_sigma, sigma_new),
            None => f64::INFINITY,
        }
    }

    /// Offers an entry during harvesting (paper Alg. 3 lines 18–24): keep it
    /// iff the heap is not full or it beats the current worst under the
    /// strict total order (`lb_key`, then neighbour index). Returns whether
    /// the entry was kept.
    #[inline]
    pub fn offer(&mut self, entry: DpEntry) -> bool {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            self.sift_up(self.entries.len() - 1);
        } else if heap_gt(&self.entries[0], &entry) {
            self.entries[0] = entry;
            self.sift_down(0);
        } else {
            return false;
        }
        self.sorted = false;
        true
    }

    /// Clears the profile and re-anchors it at a new length (used when a
    /// distance profile is recomputed from scratch, Alg. 4 lines 30–34).
    pub fn reanchor(&mut self, anchor_l: usize, anchor_sigma: f64) {
        self.entries.clear();
        self.sorted = false;
        self.anchor_l = anchor_l;
        self.current_l = anchor_l;
        self.anchor_sigma = anchor_sigma;
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if heap_gt(&self.entries[idx], &self.entries[parent]) {
                self.entries.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * idx + 1, 2 * idx + 2);
            let mut largest = idx;
            if l < n && heap_gt(&self.entries[l], &self.entries[largest]) {
                largest = l;
            }
            if r < n && heap_gt(&self.entries[r], &self.entries[largest]) {
                largest = r;
            }
            if largest == idx {
                break;
            }
            self.entries.swap(idx, largest);
            idx = largest;
        }
    }
}

/// `listDP` in the compact form a parked segment keeps between queries:
/// per retained entry only the neighbour (`u32`) and the dot product
/// (`f64`), row after row in each heap's own order, plus a fill count per
/// row — 12 bytes per entry instead of a [`DpEntry`]'s 20.
///
/// Everything else is a pure function of those and the series' prefix-stable
/// statistics, so [`PackedPartials::unpack`] rebuilds it with the accessors
/// the fused kernel used: `lb_key` by `key_for_pair` over the distance
/// [`dist_from_qt`] gives (bitwise symmetric in its two subsequences) with
/// the same flat flags, and the anchor σ by `ps.std(owner, ℓ)`. Only *anchor-fresh*
/// partials pack — row `r` owned by subsequence `r`, never advanced or
/// re-anchored — which is what a captured segment holds.
#[derive(Debug, Clone)]
pub(crate) struct PackedPartials {
    l: usize,
    capacity: usize,
    fill: Vec<u32>,
    neighbor: Vec<u32>,
    qt: Vec<f64>,
}

impl PackedPartials {
    /// Packs anchor-fresh partials harvested at length `l`, or `None` when
    /// a row count does not fit in `u32`.
    pub(crate) fn pack(partials: &[PartialProfile], l: usize, capacity: usize) -> Option<Self> {
        let total = partials.iter().map(PartialProfile::len).sum();
        let mut packed = PackedPartials {
            l,
            capacity,
            fill: Vec::with_capacity(partials.len()),
            neighbor: Vec::with_capacity(total),
            qt: Vec::with_capacity(total),
        };
        for (r, prof) in partials.iter().enumerate() {
            debug_assert!(prof.owner == r && prof.anchor_l == l && prof.current_l == l);
            debug_assert_eq!(prof.capacity, capacity);
            packed.fill.push(u32::try_from(prof.len()).ok()?);
            for e in prof.entries() {
                packed.neighbor.push(e.neighbor);
                packed.qt.push(e.qt);
            }
        }
        Some(packed)
    }

    /// Rebuilds every row's [`PartialProfile`], entries in the order they
    /// were packed. `ps` must cover at least the packed rows in the frame
    /// they were harvested in.
    pub(crate) fn unpack(&self, ps: &ProfiledSeries) -> Vec<PartialProfile> {
        let l = self.l;
        let (mut means, mut stds) = (Vec::new(), Vec::new());
        ps.fill_stats(l, self.fill.len(), &mut means, &mut stds);
        let flats: Vec<bool> =
            means.iter().zip(&stds).map(|(&mean, &std)| is_flat(std, mean)).collect();
        let (mut at, reserve) = (0, reservation(self.capacity, self.fill.len()));
        self.fill
            .iter()
            .enumerate()
            .map(|(r, &fill)| {
                let (mean_r, std_r, flat_r) = (means[r], stds[r], flats[r]);
                let end = at + fill as usize;
                let mut entries = Vec::with_capacity(reserve);
                for (&nb, &qt) in self.neighbor[at..end].iter().zip(&self.qt[at..end]) {
                    let neighbor = nb as usize;
                    let (mean_n, std_n, flat_n) =
                        (means[neighbor], stds[neighbor], flats[neighbor]);
                    let dist = dist_from_qt(qt, l, mean_r, std_r, mean_n, std_n);
                    let lb_key = key_for_pair(dist, l, flat_r, flat_n);
                    entries.push(DpEntry { qt, lb_key, neighbor: nb });
                }
                at = end;
                PartialProfile::from_heap(r, l, std_r, self.capacity, entries)
            })
            .collect()
    }

    /// Heap bytes held: 4 per row plus 12 per entry.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.fill.len() * std::mem::size_of::<u32>()
            + self.neighbor.len() * std::mem::size_of::<u32>()
            + self.qt.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(neighbor: usize, lb_key: f64) -> DpEntry {
        DpEntry::new(neighbor, 0.0, lb_key)
    }

    #[test]
    fn heap_keeps_p_smallest_keys() {
        let mut p = PartialProfile::new(0, 8, 1.0, 3, 100);
        for (n, key) in [(1usize, 5.0), (2, 1.0), (3, 4.0), (4, 0.5), (5, 3.0)] {
            p.offer(entry(n, key));
        }
        assert_eq!(p.len(), 3);
        let mut keys: Vec<f64> = p.entries().iter().map(DpEntry::lb_key).collect();
        keys.sort_by(f64::total_cmp);
        assert_eq!(keys, vec![0.5, 1.0, 3.0]);
        assert_eq!(p.max_lb_key(), Some(3.0));
    }

    #[test]
    fn retention_is_independent_of_offer_order() {
        // Equal lb_keys tie-break on the neighbour index, so the surviving
        // set is the same whatever order entries arrive in.
        let pool = [
            entry(9, 2.0),
            entry(4, 2.0),
            entry(7, 2.0),
            entry(1, 5.0),
            entry(2, 2.0),
            entry(8, 0.5),
        ];
        let survivors = |order: &[usize]| -> Vec<usize> {
            let mut p = PartialProfile::new(0, 8, 1.0, 3, 100);
            for &k in order {
                p.offer(pool[k]);
            }
            let mut kept: Vec<usize> = p.entries().iter().map(DpEntry::neighbor).collect();
            kept.sort_unstable();
            kept
        };
        let forward = survivors(&[0, 1, 2, 3, 4, 5]);
        // Smallest under (lb_key, neighbor): (0.5, 8), (2.0, 2), (2.0, 4).
        assert_eq!(forward, vec![2, 4, 8]);
        assert_eq!(survivors(&[5, 4, 3, 2, 1, 0]), forward);
        assert_eq!(survivors(&[3, 0, 5, 2, 4, 1]), forward);
    }

    #[test]
    fn unfilled_heap_reports_infinite_threshold() {
        let mut p = PartialProfile::new(0, 8, 2.0, 4, 100);
        p.offer(entry(1, 2.0));
        assert!(p.max_lb_at(1.0).is_infinite());
    }

    #[test]
    fn max_lb_scales_with_sigma_ratio() {
        let mut p = PartialProfile::new(0, 8, 2.0, 2, 100);
        p.offer(entry(1, 4.0));
        p.offer(entry(2, 9.0));
        // maxLB = sqrt(9) * 2.0/σ_new.
        assert!((p.max_lb_at(1.0) - 6.0).abs() < 1e-12);
        assert!((p.max_lb_at(4.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reanchor_clears_state() {
        let mut p = PartialProfile::new(3, 8, 2.0, 2, 100);
        p.offer(entry(1, 4.0));
        p.reanchor(12, 3.0);
        assert!(p.is_empty());
        assert_eq!(p.anchor_l, 12);
        assert_eq!(p.current_l, 12);
        assert_eq!(p.anchor_sigma, 3.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        PartialProfile::new(0, 8, 1.0, 0, 100);
    }
}

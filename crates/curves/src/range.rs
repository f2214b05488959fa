//! Key ranges produced by query planning.

/// An inclusive range `[lo, hi]` of curve codes, to be executed as one
/// `SCAN` over the ordered key-value store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyRange {
    /// First code covered.
    pub lo: u64,
    /// Last code covered (inclusive).
    pub hi: u64,
}

impl KeyRange {
    /// Creates a range, asserting `lo <= hi` in debug builds.
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi);
        KeyRange { lo, hi }
    }

    /// A single-code range.
    pub fn point(v: u64) -> Self {
        KeyRange { lo: v, hi: v }
    }

    /// Whether `v` is inside the range.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Number of codes covered (saturating).
    pub fn len(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// Ranges are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A key range qualified by a time-period number — the planning output of
/// the Z3/XZ3/Z2T/XZ2T strategies, whose keys are `period :: code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeriodRange {
    /// Time-period number from Equation (1) of the paper.
    pub period: i32,
    /// The spatial (or spatio-temporal) code range within the period.
    pub range: KeyRange,
}

/// Knobs bounding query decomposition work.
#[derive(Debug, Clone, Copy)]
pub struct RangeOptions {
    /// Cap on the curve ranges one query plans. The planner refines the
    /// window level by level and stops before the level that would take
    /// it past this many ranges, so small windows are planned down to the
    /// curve's resolution and large ones stop higher up. Temporal curves
    /// split the budget across the periods the window covers.
    pub max_ranges: usize,
}

impl Default for RangeOptions {
    /// 1024: the cheapest budget, in a sweep of 64 to 2048, for the 10-day
    /// trajectory windows of the JustQL benchmark (XZ2T over 12 periods).
    fn default() -> Self {
        RangeOptions { max_ranges: 1024 }
    }
}

impl RangeOptions {
    /// The share of the budget one of `periods` time periods gets (at
    /// least one range, so every period stays covered).
    pub(crate) fn per_period(&self, periods: usize) -> RangeOptions {
        RangeOptions {
            max_ranges: (self.max_ranges / periods.max(1)).max(1),
        }
    }
}

/// How a query window meets one cell of a curve's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Overlap {
    /// Nothing filed under the cell can match: the subtree is pruned.
    Disjoint,
    /// Everything filed under the cell matches: one covering range.
    Contained,
    /// Some of it may match: refine the cell if the budget allows.
    Partial,
}

/// A quadtree (`DIMS` = 2) or octree (`DIMS` = 3) cell: its level and
/// its integer coordinates at that level, `0..2^level` per dimension
/// (`t` stays 0 in two dimensions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cell {
    pub level: u32,
    pub x: u64,
    pub y: u64,
    pub t: u64,
}

impl Cell {
    /// The `2^dims` children in curve order: child `q` takes bit 0 of
    /// `q` in x, bit 1 in y and bit 2 in t.
    fn children(self, dims: u32) -> impl Iterator<Item = Cell> {
        (0..1u64 << dims).map(move |q| Cell {
            level: self.level + 1,
            x: 2 * self.x + (q & 1),
            y: 2 * self.y + ((q >> 1) & 1),
            t: 2 * self.t + (q >> 2),
        })
    }
}

/// One curve's tree, bound to one query window: what the planner needs
/// to walk it.
pub(crate) trait CellCurve {
    /// 2 for the quadtree curves, 3 for the octree ones.
    const DIMS: u32;
    /// The curve's resolution: cells at this level have no children.
    fn resolution(&self) -> u32;
    /// How the window meets `cell`.
    fn classify(&self, cell: Cell) -> Overlap;
    /// Every code filed under `cell` (its whole subtree).
    fn covering(&self, cell: Cell) -> KeyRange;
    /// XZ curves file objects at interior cells too: the code of those
    /// filed at `cell` itself, emitted when a partial cell is refined.
    fn own_code(&self, _cell: Cell) -> Option<u64> {
        None
    }
}

/// How a window meets a cell, from the inclusive `(cell, window)` spans
/// of its dimensions.
pub(crate) fn overlap<T: PartialOrd, const N: usize>(spans: [((T, T), (T, T)); N]) -> Overlap {
    let mut contained = true;
    for ((c_lo, c_hi), (lo, hi)) in spans {
        if c_hi < lo || c_lo > hi {
            return Overlap::Disjoint;
        }
        contained &= lo <= c_lo && c_hi <= hi;
    }
    if contained {
        Overlap::Contained
    } else {
        Overlap::Partial
    }
}

/// Sequence codes in the subtree of a level-`level` cell of an XZ curve
/// with resolution `g` in `dims` dimensions (the cell plus every
/// descendant): `(2^(dims·(g-level+1)) - 1) / (2^dims - 1)`.
pub(crate) fn xz_subtree_size(g: u32, level: u32, dims: u32) -> u64 {
    ((1u64 << (dims * (g - level + 1))) - 1) / ((1u64 << dims) - 1)
}

/// The depth-first sequence code of an XZ cell: one step per level,
/// skipping the subtrees of the children before it.
pub(crate) fn xz_code(g: u32, cell: Cell, dims: u32) -> u64 {
    (1..=cell.level).fold(0, |code, i| {
        let shift = cell.level - i;
        let child = ((cell.x >> shift) & 1)
            | (((cell.y >> shift) & 1) << 1)
            | (((cell.t >> shift) & 1) << 2);
        code + 1 + child * xz_subtree_size(g, i, dims)
    })
}

/// Decomposes a window into merged code ranges with the breadth-first,
/// budgeted walk of GeoMesa's `XZ2SFC.ranges`, shared by every curve;
/// also returns the deepest level whose cells were classified into the
/// plan.
///
/// Every partial cell of a level is refined together: its contained
/// children become covering ranges, its partial children the next
/// frontier (XZ curves also emit the cell's own code). A level is taken
/// only if the merged ranges emitted so far plus the new frontier stay
/// within `max_ranges`; otherwise — or at the curve's resolution — the
/// walk stops and each frontier cell is emitted as its covering range.
/// So every part of the window is cut to the same depth, and the plan
/// never holds more than `max_ranges` ranges.
///
/// Children come in curve order, so each level's frontier and ranges are
/// sorted by code, and merging a level into the plan is one linear pass.
pub(crate) fn walk<C: CellCurve>(curve: &C, max_ranges: usize) -> (Vec<KeyRange>, u32) {
    let mut frontier = match curve.classify(Cell::default()) {
        Overlap::Disjoint => return (Vec::new(), 0),
        Overlap::Contained => return (vec![curve.covering(Cell::default())], 0),
        Overlap::Partial => vec![Cell::default()],
    };
    let budget = max_ranges.max(1);
    let (mut out, mut emitted, mut next) = (Vec::new(), Vec::new(), Vec::new());
    let mut level = 0;
    while level < curve.resolution() && !frontier.is_empty() {
        emitted.clear();
        next.clear();
        for &cell in &frontier {
            emitted.extend(curve.own_code(cell).map(KeyRange::point));
            for child in cell.children(C::DIMS) {
                match curve.classify(child) {
                    Overlap::Disjoint => {}
                    Overlap::Contained => emitted.push(curve.covering(child)),
                    Overlap::Partial => next.push(child),
                }
            }
        }
        let merged = merge_sorted(&out, &emitted);
        if merged.len() + next.len() > budget {
            // The level's ranges lie inside the frontier's covering
            // ranges, so dropping them with the level loses nothing.
            break;
        }
        out = merged;
        std::mem::swap(&mut frontier, &mut next);
        level += 1;
    }
    emitted.clear();
    emitted.extend(frontier.iter().map(|&cell| curve.covering(cell)));
    (merge_sorted(&out, &emitted), level)
}

/// Merges two code-sorted range lists into one sorted list, coalescing
/// overlapping or adjacent ranges.
fn merge_sorted(a: &[KeyRange], b: &[KeyRange]) -> Vec<KeyRange> {
    let mut out: Vec<KeyRange> = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let r = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if x.lo <= y.lo => a.next(),
            (Some(_), Some(_)) | (None, Some(_)) => b.next(),
            (Some(_), None) => a.next(),
            (None, None) => return out,
        };
        let r = *r.expect("peeked");
        match out.last_mut() {
            Some(cur) if r.lo <= cur.hi.saturating_add(1) => cur.hi = cur.hi.max(r.hi),
            _ => out.push(r),
        }
    }
}

/// Sorts and merges overlapping or adjacent ranges.
pub fn merge_ranges(mut ranges: Vec<KeyRange>) -> Vec<KeyRange> {
    ranges.sort_unstable();
    merge_sorted(&ranges, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_overlapping_and_adjacent() {
        let merged = merge_ranges(vec![
            KeyRange::new(10, 20),
            KeyRange::new(0, 5),
            KeyRange::new(21, 30),
            KeyRange::new(15, 25),
            KeyRange::new(40, 50),
        ]);
        assert_eq!(
            merged,
            vec![
                KeyRange::new(0, 5),
                KeyRange::new(10, 30),
                KeyRange::new(40, 50)
            ]
        );
    }

    #[test]
    fn merge_handles_extremes() {
        let merged = merge_ranges(vec![
            KeyRange::new(u64::MAX - 1, u64::MAX),
            KeyRange::new(0, 0),
            KeyRange::new(1, 1),
        ]);
        assert_eq!(
            merged,
            vec![KeyRange::new(0, 1), KeyRange::new(u64::MAX - 1, u64::MAX)]
        );
    }

    #[test]
    fn merge_empty_and_single() {
        assert!(merge_ranges(vec![]).is_empty());
        assert_eq!(
            merge_ranges(vec![KeyRange::point(7)]),
            vec![KeyRange::point(7)]
        );
    }

    #[test]
    fn the_budget_bounds_every_plan() {
        // Random windows, spatial and over one to three periods, for
        // every budget from 1 up: no curve plans more ranges than the
        // budget (temporal curves: at least one per period).
        use crate::{TimePeriod, Xz2, Xz3, Z2, Z3};
        let mut rng = just_obs::Rng::seed_from_u64(0xb0d6e7);
        let (z2, xz2) = (Z2::default(), Xz2::default());
        let (z3, xz3) = (
            Z3::with_period(TimePeriod::Day),
            Xz3::with_period(TimePeriod::Day),
        );
        const DAY_MS: i64 = 86_400_000;
        for _ in 0..40 {
            let (x, y) = (
                rng.gen_range(-170.0f64..170.0),
                rng.gen_range(-80.0f64..80.0),
            );
            let side = 10f64.powf(rng.gen_range(-3.0f64..1.0));
            let window = just_geo::Rect::new(x, y, x + side, y + side);
            let t_min = rng.gen_range(0..3 * DAY_MS);
            let t_max = t_min + rng.gen_range(0..2 * DAY_MS);
            for max_ranges in [1usize, 2, 7, 64, 300, 2048] {
                let opts = RangeOptions { max_ranges };
                let periods = (t_max / DAY_MS - t_min / DAY_MS + 2) as usize;
                let cap = max_ranges.max(periods);
                assert!(z2.ranges(&window, &opts).len() <= max_ranges);
                assert!(xz2.ranges(&window, &opts).len() <= max_ranges);
                assert!(z3.ranges(&window, t_min, t_max, &opts).len() <= cap);
                assert!(xz3.ranges(&window, t_min, t_max, &opts).len() <= cap);
            }
        }
    }

    #[test]
    fn range_len() {
        assert_eq!(KeyRange::new(3, 3).len(), 1);
        assert_eq!(KeyRange::new(0, u64::MAX).len(), u64::MAX);
    }
}

//! The XZ2 index: XZ-ordering for spatially extended objects
//! (Böhm, Klump & Kriegel, SSD'99), as used by GeoMesa for lines and
//! polygons.
//!
//! Each object is assigned the largest quadtree cell whose *enlarged*
//! (doubled width/height) version still contains the object's MBR
//! (Figure 3f of the paper). Cells are numbered by a depth-first sequence
//! code so that every subtree occupies a contiguous code interval, which
//! makes "everything under this cell" a single key range.

use crate::range::{
    overlap, walk, xz_code, xz_subtree_size, Cell, CellCurve, KeyRange, Overlap, RangeOptions,
};
use crate::{cell_rect, discretize, norm_lat, norm_lng};
use just_geo::Rect;

/// XZ-ordering over the longitude/latitude plane.
#[derive(Debug, Clone, Copy)]
pub struct Xz2 {
    g: u32,
}

impl Default for Xz2 {
    fn default() -> Self {
        // Cells at level 16 are ~600 m on a side at the equator: fine
        // enough that urban query windows keep their spatial selectivity.
        Xz2::new(16)
    }
}

impl Xz2 {
    /// Creates the curve with maximum resolution `g` (1..=30).
    pub fn new(g: u32) -> Self {
        assert!((1..=30).contains(&g), "g must be in 1..=30");
        Xz2 { g }
    }

    /// Maximum quadtree depth.
    pub fn g(&self) -> u32 {
        self.g
    }

    /// Total number of sequence codes (exclusive upper bound): the size of
    /// the subtree rooted at the whole space.
    pub fn code_space(&self) -> u64 {
        subtree_size(self.g, 0)
    }

    /// Encodes an MBR (in degrees) into its XZ2 sequence code.
    pub fn index(&self, mbr: &Rect) -> u64 {
        let (x_min, y_min) = (norm_lng(mbr.min_x), norm_lat(mbr.min_y));
        let (x_max, y_max) = (norm_lng(mbr.max_x), norm_lat(mbr.max_y));
        let l = self.element_level(x_max - x_min, y_max - y_min, x_min, y_min);
        self.cell_code(l, discretize(x_min, l), discretize(y_min, l))
    }

    /// The largest level whose enlarged cell contains the object.
    fn element_level(&self, w: f64, h: f64, x_min: f64, y_min: f64) -> u32 {
        let max_dim = w.max(h);
        let l1 = if max_dim <= 0.0 {
            self.g
        } else {
            // floor(log2(1/max_dim)) without overflow for tiny dims.
            (-max_dim.log2()).floor().max(0.0).min(self.g as f64) as u32
        };
        if l1 == 0 {
            return 0;
        }
        // Check the object fits in the enlarged cell at l1; if not, the
        // parent level always fits (Böhm's Lemma).
        let cell = 2f64.powi(-(l1 as i32));
        let bx = (x_min / cell).floor() * cell;
        let by = (y_min / cell).floor() * cell;
        if x_min + w <= bx + 2.0 * cell && y_min + h <= by + 2.0 * cell {
            l1
        } else {
            l1 - 1
        }
    }

    /// The sequence code of the level-`level` quadtree cell `(x, y)`
    /// (cell coordinates at that level, `0..2^level`): the code of every
    /// object whose element is that cell.
    pub fn cell_code(&self, level: u32, x: u64, y: u64) -> u64 {
        debug_assert!(level <= self.g);
        xz_code(self.g, Cell { level, x, y, t: 0 }, 2)
    }

    /// The codes of every object whose element is the cell `(x, y)` at
    /// `level` or one of its descendants: one contiguous range, because
    /// sequence codes number the quadtree depth-first.
    pub fn cell_range(&self, level: u32, x: u64, y: u64) -> KeyRange {
        let code = self.cell_code(level, x, y);
        KeyRange::new(code, code + subtree_size(self.g, level) - 1)
    }

    /// A rectangle (degrees) containing every object whose code lies in
    /// [`Xz2::cell_range`]`(level, x, y)`: the cell's *enlarged* cell
    /// (doubled width and height, as in [`Xz2::index`]), which also holds
    /// every descendant's enlarged cell. Padded by the normalisation's
    /// rounding and unbounded on the domain edge.
    pub fn cell_bounds(&self, level: u32, x: u64, y: u64) -> Rect {
        let w = 1.0 / (1u64 << level) as f64;
        let (x, y) = (x as f64 * w, y as f64 * w);
        cell_rect(x, x + 2.0 * w, y, y + 2.0 * w)
    }

    /// Decomposes a query window into merged code ranges.
    ///
    /// A cell's *enlarged* cell bounds every object stored at it, so:
    /// window ⊇ enlarged cell ⟹ whole subtree matches (one range);
    /// window ∩ enlarged cell ≠ ∅ ⟹ this cell may hold matches (single
    /// code) and children are explored; otherwise the subtree is pruned.
    pub fn ranges(&self, query: &Rect, opts: &RangeOptions) -> Vec<KeyRange> {
        match self.window(query) {
            Some(w) => walk(&w, opts.max_ranges).0,
            None => Vec::new(),
        }
    }

    /// The window in normalised coordinates, or `None` off the world.
    fn window(&self, query: &Rect) -> Option<Window> {
        let query = query.intersection(&just_geo::WORLD)?;
        Some(Window {
            xz2: *self,
            x: (norm_lng(query.min_x), norm_lng(query.max_x)),
            y: (norm_lat(query.min_y), norm_lat(query.max_y)),
        })
    }
}

/// A query window over the XZ2 quadtree, normalised to `[0, 1]`.
struct Window {
    xz2: Xz2,
    x: (f64, f64),
    y: (f64, f64),
}

impl CellCurve for Window {
    const DIMS: u32 = 2;

    fn resolution(&self) -> u32 {
        self.xz2.g
    }

    fn classify(&self, cell: Cell) -> Overlap {
        // The enlarged cell (doubled width and height) bounds every
        // object filed under the cell.
        let w = 1.0 / (1u64 << cell.level) as f64;
        let span = |c: u64| (c as f64 * w, (c + 2) as f64 * w);
        overlap([(span(cell.x), self.x), (span(cell.y), self.y)])
    }

    fn covering(&self, cell: Cell) -> KeyRange {
        self.xz2.cell_range(cell.level, cell.x, cell.y)
    }

    fn own_code(&self, cell: Cell) -> Option<u64> {
        Some(self.xz2.cell_code(cell.level, cell.x, cell.y))
    }
}

/// Number of sequence codes in a subtree rooted at a level-`level` cell
/// (the cell itself plus all descendants down to level `g`):
/// `(4^(g-level+1) - 1) / 3`.
fn subtree_size(g: u32, level: u32) -> u64 {
    xz_subtree_size(g, level, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_sizes() {
        // g = 2: leaf subtree = 1 cell... level 2 cell has d = 1 -> 1 code.
        assert_eq!(subtree_size(2, 2), 1);
        // level-1 cell: itself + 4 leaves = 5.
        assert_eq!(subtree_size(2, 1), 5);
        // root: itself + 4 * 5 = 21.
        assert_eq!(subtree_size(2, 0), 21);
    }

    #[test]
    fn codes_are_unique_per_cell() {
        let xz = Xz2::new(6);
        let mut seen = std::collections::HashSet::new();
        // Enumerate small MBRs on a grid; distinct cells must not collide.
        for i in 0..32 {
            for j in 0..32 {
                let x = -180.0 + 360.0 * (i as f64 + 0.25) / 32.0;
                let y = -90.0 + 180.0 * (j as f64 + 0.25) / 32.0;
                let mbr = Rect::new(x, y, x + 0.01, y + 0.01);
                seen.insert(xz.index(&mbr));
            }
        }
        // 32x32 sub-cell MBRs at g=6 land in at least the 2^6-level cells.
        assert!(seen.len() >= 900, "only {} distinct codes", seen.len());
    }

    #[test]
    fn code_space_bound() {
        let xz = Xz2::new(16);
        let big = Rect::new(-179.0, -89.0, 179.0, 89.0);
        let small = Rect::new(116.40, 39.90, 116.41, 39.91);
        assert!(xz.index(&big) < xz.code_space());
        assert!(xz.index(&small) < xz.code_space());
    }

    #[test]
    fn larger_objects_get_shallower_cells() {
        let xz = Xz2::default();
        // A world-spanning object cannot fit any enlarged sub-cell: it is
        // stored at the root, which by DFS numbering is code 0.
        let world = Rect::new(-179.0, -89.0, 179.0, 89.0);
        assert_eq!(xz.index(&world), 0);
        // At the SW corner, codes count the levels descended: a
        // quarter-of-the-world object stops at level 2 (code 2), while a
        // tiny object descends all g levels (code g).
        let big_sw = Rect::new(-180.0, -90.0, -90.0, -45.0);
        let tiny_sw = Rect::new(-180.0, -90.0, -180.0, -90.0);
        assert_eq!(xz.index(&big_sw), 2);
        assert_eq!(xz.index(&tiny_sw), u64::from(xz.g()));
    }

    #[test]
    fn ranges_cover_indexed_objects() {
        let xz = Xz2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let opts = RangeOptions::default();
        let ranges = xz.ranges(&window, &opts);
        assert!(!ranges.is_empty());
        // Objects overlapping the window must be covered.
        for i in 0..20 {
            let f = i as f64 / 19.0;
            let mbr = Rect::new(
                115.9 + f * 1.0,
                38.9 + f * 1.0,
                115.9 + f * 1.0 + 0.15,
                38.9 + f * 1.0 + 0.15,
            );
            if mbr.intersects(&window) {
                let code = xz.index(&mbr);
                assert!(
                    ranges.iter().any(|r| r.contains(code)),
                    "mbr {mbr:?} (code {code}) escaped"
                );
            }
        }
    }

    #[test]
    fn ranges_cover_objects_straddling_the_window_edge() {
        // An object much bigger than the window, overlapping it, must be
        // found via its shallow cell's single-code range.
        let xz = Xz2::default();
        let window = Rect::new(116.0, 39.0, 116.1, 39.1);
        let ranges = xz.ranges(&window, &RangeOptions::default());
        let giant = Rect::new(100.0, 20.0, 130.0, 50.0);
        let code = xz.index(&giant);
        assert!(ranges.iter().any(|r| r.contains(code)));
    }

    #[test]
    fn far_objects_not_covered() {
        let xz = Xz2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let ranges = xz.ranges(&window, &RangeOptions::default());
        let far = Rect::new(-120.0, -40.0, -119.9, -39.9);
        let code = xz.index(&far);
        assert!(!ranges.iter().any(|r| r.contains(code)));
    }

    /// Finds the element cell of `code` by descending the quadtree with
    /// `cell_code`/`cell_range`, checking at every step that the code stays
    /// inside exactly one child's range.
    fn element_of(xz: &Xz2, code: u64) -> (u32, u64, u64) {
        let (mut level, mut x, mut y) = (0u32, 0u64, 0u64);
        loop {
            assert!(xz.cell_range(level, x, y).contains(code));
            if xz.cell_code(level, x, y) == code {
                return (level, x, y);
            }
            let kids: Vec<(u64, u64)> = (0..4u64)
                .map(|q| (2 * x + (q & 1), 2 * y + (q >> 1)))
                .filter(|&(cx, cy)| xz.cell_range(level + 1, cx, cy).contains(code))
                .collect();
            assert_eq!(kids.len(), 1, "code {code} in {} children", kids.len());
            (x, y) = kids[0];
            level += 1;
        }
    }

    #[test]
    fn cell_bounds_contain_every_object_filed_under_the_cell() {
        let xz = Xz2::default();
        let mut rng = just_obs::Rng::seed_from_u64(0x787a32);
        for _ in 0..2000 {
            // Corners within two ulps of cell edges of a random level
            // half the time, so objects sit on the boundaries (and
            // normalisation rounds some across them).
            let level = rng.gen_range(1..19u32);
            let cells = (1u64 << level) as f64;
            let mut coord = |origin: f64, span: f64| {
                if rng.gen_bool(0.5) {
                    let v = origin + span * (rng.gen_f64() * cells).floor() / cells;
                    let ulps = rng.gen_range(-2..3i64) * if v < 0.0 { -1 } else { 1 };
                    let shifted = if v == 0.0 {
                        v
                    } else {
                        f64::from_bits((v.to_bits() as i64 + ulps) as u64)
                    };
                    shifted.clamp(origin, origin + span)
                } else {
                    origin + span * rng.gen_f64()
                }
            };
            let (x0, y0) = (coord(-180.0, 360.0), coord(-90.0, 180.0));
            let (w, h) = (rng.gen_f64() * 360.0 / cells, rng.gen_f64() * 180.0 / cells);
            let mbr = Rect::new(x0, y0, (x0 + w).min(180.0), (y0 + h).min(90.0));
            let code = xz.index(&mbr);
            let (l, x, y) = element_of(&xz, code);
            // Every ancestor's bounds hold the object too.
            for up in 0..=l {
                let b = xz.cell_bounds(l - up, x >> up, y >> up);
                assert!(b.contains_rect(&mbr), "{mbr:?} (level {l}) outside {b:?}");
            }
        }
    }

    #[test]
    fn cell_codes_match_index_at_the_sw_corner() {
        let xz = Xz2::default();
        let tiny_sw = Rect::new(-180.0, -90.0, -180.0, -90.0);
        assert_eq!(xz.cell_code(xz.g(), 0, 0), xz.index(&tiny_sw));
        assert_eq!(
            xz.cell_range(0, 0, 0),
            KeyRange::new(0, xz.code_space() - 1)
        );
        assert_eq!(xz.cell_range(xz.g(), 5, 9).len(), 1);
    }

    #[test]
    fn a_5km_window_is_planned_past_level_12() {
        // Level 9 (the old fixed cut) is ~60 km across; the budgeted
        // walk keeps refining a city-sized window far below that.
        let xz = Xz2::default();
        for (lng, lat) in [(116.4, 39.9), (-73.97, 40.78), (151.2, -33.9)] {
            let window = Rect::window_km(just_geo::Point::new(lng, lat), 5.0);
            let (ranges, level) = crate::range::walk(
                &xz.window(&window).unwrap(),
                RangeOptions::default().max_ranges,
            );
            assert!(level >= 12, "({lng}, {lat}): stopped at level {level}");
            assert!(ranges.len() <= RangeOptions::default().max_ranges);
        }
    }

    #[test]
    fn point_like_mbr_gets_max_level() {
        let xz = Xz2::new(8);
        let p = Rect::new(10.0, 10.0, 10.0, 10.0);
        let code = xz.index(&p);
        // Max-level codes are large: they sit at the bottom of the tree.
        assert!(code >= 8); // at least one step per level
    }
}

//! The Z2 index: Morton order over (longitude, latitude) for point data.

use crate::morton::{deinterleave2, interleave2};
use crate::range::{overlap, walk, Cell, CellCurve, KeyRange, Overlap, RangeOptions};
use crate::{cell_rect, discretize, norm_lat, norm_lng};
use just_geo::Rect;

/// Z-order curve over the longitude/latitude plane.
#[derive(Debug, Clone, Copy)]
pub struct Z2 {
    bits: u32,
}

impl Default for Z2 {
    fn default() -> Self {
        // 30 bits per dimension = 60-bit codes: ~1 cm cells at the equator,
        // comfortably finer than GPS accuracy.
        Z2::new(30)
    }
}

impl Z2 {
    /// Creates a curve with `bits` of resolution per dimension (1..=31).
    pub fn new(bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "bits must be in 1..=31");
        Z2 { bits }
    }

    /// Resolution in bits per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Encodes a point into its Z2 code.
    pub fn index(&self, lng: f64, lat: f64) -> u64 {
        let x = discretize(norm_lng(lng), self.bits);
        let y = discretize(norm_lat(lat), self.bits);
        interleave2(x, y)
    }

    /// The cell rectangle whose Z2 code is `z`.
    pub fn invert(&self, z: u64) -> Rect {
        let (x, y) = deinterleave2(z);
        let cells = (1u64 << self.bits) as f64;
        let w = 360.0 / cells;
        let h = 180.0 / cells;
        let min_x = -180.0 + x as f64 * w;
        let min_y = -90.0 + y as f64 * h;
        Rect::new(min_x, min_y, min_x + w, min_y + h)
    }

    /// The codes of every point in the level-`level` quadtree cell
    /// `(x, y)` (cell coordinates at that level, `0..2^level`): the
    /// cell's whole Morton subtree, one contiguous range.
    pub fn cell_range(&self, level: u32, x: u64, y: u64) -> KeyRange {
        debug_assert!(level <= self.bits);
        let shift = 2 * (self.bits - level);
        let lo = interleave2(x, y) << shift;
        KeyRange::new(lo, lo + ((1u64 << shift) - 1))
    }

    /// A rectangle (degrees) containing every point whose code lies in
    /// [`Z2::cell_range`]`(level, x, y)`: the cell itself, padded by the
    /// normalisation's rounding and unbounded on the domain edge.
    pub fn cell_bounds(&self, level: u32, x: u64, y: u64) -> Rect {
        let side = 1.0 / (1u64 << level) as f64;
        let (x, y) = (x as f64 * side, y as f64 * side);
        cell_rect(x, x + side, y, y + side)
    }

    /// Decomposes a query window into merged inclusive code ranges (the
    /// GeoMesa approach): a quadrant wholly inside the window contributes
    /// its whole code subtree; partially covered quadrants are split
    /// level by level while `opts.max_ranges` allows, then emitted whole.
    pub fn ranges(&self, query: &Rect, opts: &RangeOptions) -> Vec<KeyRange> {
        match self.window(query) {
            Some(w) => walk(&w, opts.max_ranges).0,
            None => Vec::new(),
        }
    }

    /// The window in discrete cell space (which sidesteps floating-point
    /// edge cases), or `None` off the world.
    fn window(&self, query: &Rect) -> Option<Window> {
        let query = query.intersection(&just_geo::WORLD)?;
        Some(Window {
            z2: *self,
            x: (
                discretize(norm_lng(query.min_x), self.bits),
                discretize(norm_lng(query.max_x), self.bits),
            ),
            y: (
                discretize(norm_lat(query.min_y), self.bits),
                discretize(norm_lat(query.max_y), self.bits),
            ),
        })
    }
}

/// The deepest level a Z2 window is planned to: XZ2's level-16 grid.
/// Below it each level only doubles the ranges along the window's edge:
/// on 3 km windows over 20k orders, planning on to the budget gave ten
/// times the ranges for under one key saved per window.
const PLAN_LEVELS: u32 = 16;

/// A query window over the Z2 quadtree: inclusive finest-cell bounds.
struct Window {
    z2: Z2,
    x: (u64, u64),
    y: (u64, u64),
}

impl CellCurve for Window {
    const DIMS: u32 = 2;

    fn resolution(&self) -> u32 {
        self.z2.bits.min(PLAN_LEVELS)
    }

    fn classify(&self, cell: Cell) -> Overlap {
        let shift = self.z2.bits - cell.level;
        let span = |c: u64| (c << shift, ((c + 1) << shift) - 1);
        overlap([(span(cell.x), self.x), (span(cell.y), self.y)])
    }

    fn covering(&self, cell: Cell) -> KeyRange {
        self.z2.cell_range(cell.level, cell.x, cell.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_geo::Point;

    #[test]
    fn paper_figure3_example() {
        // Figure 3a/3b: lat 40.78, lng -73.97 at 3 bits per dimension
        // encodes lat -> 101, lng -> 010, crosswise combined 011001
        // (reading lng/lat alternately starting with... the paper shows
        // "0 1 01 0 1"). With our convention (x even bits, y odd bits):
        let z2 = Z2::new(3);
        let code = z2.index(-73.97, 40.78);
        // lng -73.97 -> norm 0.2945 -> cell floor(0.2945*8)=2 = 0b010
        // lat  40.78 -> norm 0.7265 -> cell floor(0.7265*8)=5 = 0b101
        assert_eq!(code, interleave2(0b010, 0b101));
    }

    #[test]
    fn index_is_monotone_in_quadrants() {
        let z2 = Z2::default();
        // Points in the SW hemisphere-quadrant sort before NE ones.
        assert!(z2.index(-90.0, -45.0) < z2.index(90.0, 45.0));
    }

    #[test]
    fn invert_contains_original_point() {
        let z2 = Z2::default();
        for &(lng, lat) in &[
            (0.0, 0.0),
            (116.397, 39.916),
            (-73.97, 40.78),
            (-179.99, -89.99),
            (179.99, 89.99),
        ] {
            let cell = z2.invert(z2.index(lng, lat));
            assert!(
                cell.contains_point(&Point::new(lng, lat)),
                "({lng},{lat}) not in {cell:?}"
            );
        }
    }

    #[test]
    fn ranges_cover_indexed_points_inside_window() {
        let z2 = Z2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let ranges = z2.ranges(&window, &RangeOptions::default());
        assert!(!ranges.is_empty());
        // Every point inside the window must fall into some range.
        for i in 0..50 {
            for j in 0..50 {
                let lng = 116.0 + i as f64 / 49.0;
                let lat = 39.0 + j as f64 / 49.0;
                let code = z2.index(lng, lat);
                assert!(
                    ranges.iter().any(|r| r.contains(code)),
                    "({lng},{lat}) escaped the ranges"
                );
            }
        }
    }

    #[test]
    fn ranges_exclude_far_away_points() {
        let z2 = Z2::default();
        let window = Rect::new(116.0, 39.0, 117.0, 40.0);
        let ranges = z2.ranges(&window, &RangeOptions::default());
        // A point on the other side of the planet must not be covered
        // (Z-order has false positives near the window, not globally).
        let code = z2.index(-120.0, -40.0);
        assert!(!ranges.iter().any(|r| r.contains(code)));
    }

    #[test]
    fn deeper_recursion_tightens_selectivity() {
        // A larger budget lets the walk recurse deeper: the covered span
        // never grows with the budget and the finest plan is strictly
        // tighter than the coarsest.
        let z2 = Z2::default();
        let window = Rect::new(116.0, 39.0, 116.2, 39.2);
        let span = |max_ranges: usize| -> u128 {
            z2.ranges(&window, &RangeOptions { max_ranges })
                .iter()
                .map(|r| r.len() as u128)
                .sum()
        };
        let spans: Vec<u128> = [4, 16, 64, 256, 1024, 4096].map(span).to_vec();
        assert!(
            spans.windows(2).all(|w| w[1] <= w[0]),
            "spans grow with the budget: {spans:?}"
        );
        let (coarse, fine) = (spans[0], spans[5]);
        assert!(fine < coarse, "fine {fine} !< coarse {coarse}");
    }

    #[test]
    fn a_small_budget_refines_every_quadrant_alike() {
        // A window symmetric about the origin is cut the same way in all
        // four level-1 quadrants, whatever the budget: the walk refines
        // whole levels, so the last quadrant in curve order is never left
        // coarser than the first once the budget runs short.
        let z2 = Z2::default();
        let window = Rect::new(-10.3, -7.7, 10.3, 7.7);
        for max_ranges in [4usize, 9, 16, 40, 64, 200] {
            let ranges = z2.ranges(&window, &RangeOptions { max_ranges });
            let spans: Vec<u128> = (0..4u64)
                .map(|q| {
                    let quadrant = z2.cell_range(1, q & 1, q >> 1);
                    ranges
                        .iter()
                        .filter(|r| quadrant.contains(r.lo))
                        .map(|r| r.len() as u128)
                        .sum()
                })
                .collect();
            assert!(
                spans.iter().all(|&s| s == spans[0]),
                "budget {max_ranges}: per-quadrant spans {spans:?}"
            );
        }
        // The budget binds here: a larger one tightens the plan.
        let span = |max_ranges| -> u128 {
            z2.ranges(&window, &RangeOptions { max_ranges })
                .iter()
                .map(|r| r.len() as u128)
                .sum()
        };
        assert!(span(200) < span(16));
    }

    #[test]
    fn cell_ranges_and_bounds_hold_points_on_cell_edges() {
        let z2 = Z2::default();
        let mut rng = just_obs::Rng::seed_from_u64(0x7a32);
        for level in [1u32, 5, 9, 14, 20, 30] {
            let cells = 1u64 << level;
            for _ in 0..200 {
                // A coordinate within two ulps of a level-`level` cell
                // edge (normalisation rounds such values across the
                // edge), or a random one.
                let edge = |rng: &mut just_obs::Rng, origin: f64, span: f64| {
                    if rng.gen_bool(0.7) {
                        let v = origin + span * rng.gen_range(0..cells + 1) as f64 / cells as f64;
                        let ulps = rng.gen_range(-2..3i64);
                        let shifted = if v > 0.0 {
                            f64::from_bits((v.to_bits() as i64 + ulps) as u64)
                        } else if v < 0.0 {
                            f64::from_bits((v.to_bits() as i64 - ulps) as u64)
                        } else {
                            v
                        };
                        shifted.clamp(origin, origin + span)
                    } else {
                        origin + span * rng.gen_f64()
                    }
                };
                let (lng, lat) = (edge(&mut rng, -180.0, 360.0), edge(&mut rng, -90.0, 180.0));
                let code = z2.index(lng, lat);
                let (x, y) = deinterleave2(code >> (2 * (z2.bits() - level)));
                assert!(z2.cell_range(level, x, y).contains(code));
                assert!(
                    z2.cell_bounds(level, x, y)
                        .contains_point(&Point::new(lng, lat)),
                    "level {level}: ({lng}, {lat}) outside its cell"
                );
            }
        }
    }

    #[test]
    fn cell_ranges_partition_the_parent() {
        let z2 = Z2::new(8);
        let parent = z2.cell_range(3, 5, 2);
        let mut kids: Vec<KeyRange> = (0..4u64)
            .map(|q| z2.cell_range(4, 10 + (q & 1), 4 + (q >> 1)))
            .collect();
        kids.sort();
        assert_eq!(kids[0].lo, parent.lo);
        assert_eq!(kids[3].hi, parent.hi);
        assert!(kids.windows(2).all(|w| w[0].hi + 1 == w[1].lo));
        assert_eq!(z2.cell_range(0, 0, 0).len(), 1 << 16);
    }

    #[test]
    fn edge_cells_are_unbounded_outward() {
        let z2 = Z2::default();
        let root = z2.cell_bounds(0, 0, 0);
        assert_eq!(root.min_distance(&Point::new(1e6, -1e6)), 0.0);
        let ne = z2.cell_bounds(2, 3, 3);
        assert_eq!(ne.max_x, f64::INFINITY);
        assert!((ne.min_x - 90.0).abs() < 1e-6);
    }

    #[test]
    fn whole_world_is_one_range() {
        let z2 = Z2::default();
        let ranges = z2.ranges(&just_geo::WORLD, &RangeOptions::default());
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].lo, 0);
        assert_eq!(ranges[0].hi, (1u64 << (2 * z2.bits())) - 1);
    }

    #[test]
    fn empty_intersection_gives_no_ranges() {
        let z2 = Z2::default();
        let offworld = Rect::new(500.0, 500.0, 600.0, 600.0);
        assert!(z2.ranges(&offworld, &RangeOptions::default()).is_empty());
    }
}

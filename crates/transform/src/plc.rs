//! Piecewise Linear Coarsening (PLC).
//!
//! The exact GHE transformation has up to `O(|G|)` linear segments — far too
//! many for the reference-voltage hardware, which only offers `k`
//! controllable voltage sources. The PLC problem (Section 4.1 of the paper)
//! asks for the best approximation of the exact curve by a piecewise-linear
//! curve with a given, small number of segments `m`, where the endpoints of
//! the coarse segments must be a subset of the endpoints of the exact curve
//! and the mean squared error between the two curves is minimized.
//!
//! The dynamic program below implements the recurrence of Eq. 9:
//!
//! ```text
//! E(n, m) = min_{j}  E(j, m − 1) + e(j)
//! ```
//!
//! where `e(j)` is the squared error incurred by replacing all exact
//! segments between point `j` and point `n` with the single chord from `j`
//! to `n`. The implementation runs in `O(m·n²)` time after an `O(n²)`
//! chord-error precomputation, matching the complexity stated in the paper.

use crate::error::{Result, TransformError};
use crate::piecewise::{ControlPoint, PiecewiseLinear};

/// Outcome of a coarsening run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseningResult {
    /// The coarse curve `Λ` with at most the requested number of segments.
    pub curve: PiecewiseLinear,
    /// Indices into the original control-point list that were kept.
    pub kept_indices: Vec<usize>,
    /// Total squared error between the kept chords and the skipped original
    /// control points (the DP objective).
    pub squared_error: f64,
}

impl CoarseningResult {
    /// Mean squared error per original control point.
    pub fn mse(&self, original_point_count: usize) -> f64 {
        if original_point_count == 0 {
            0.0
        } else {
            self.squared_error / original_point_count as f64
        }
    }
}

/// Approximates `curve` by a piecewise-linear curve with at most
/// `max_segments` segments using dynamic programming.
///
/// The first and last control points of the input are always kept, so the
/// coarse curve covers the same input range and hits the same extreme output
/// values — exactly what the reference-voltage ladder needs.
///
/// # Errors
///
/// Returns [`TransformError::InvalidSegmentCount`] when `max_segments` is 0.
///
/// # Examples
///
/// ```
/// use hebs_transform::{coarsen, PiecewiseLinear, PixelTransform};
///
/// let exact = PiecewiseLinear::from_samples(256, |x| x.sqrt());
/// let coarse = coarsen(&exact, 6)?;
/// assert!(coarse.curve.segment_count() <= 6);
/// // The coarse curve still tracks the exact curve closely.
/// assert!(exact.mse_against(&coarse.curve, 512) < 1e-3);
/// # Ok::<(), hebs_transform::TransformError>(())
/// ```
pub fn coarsen(curve: &PiecewiseLinear, max_segments: usize) -> Result<CoarseningResult> {
    let (kept, squared_error) = partition(curve, max_segments)?;
    Ok(CoarseningResult {
        curve: select(curve, kept.iter().copied())?,
        kept_indices: kept,
        squared_error,
    })
}

/// The control-point indices the optimal coarsening of `curve` keeps —
/// [`coarsen`] without building the coarse curve.
///
/// Pair it with [`select`] to coarsen a family of curves that share their
/// abscissae and differ only by an affine map of the ordinates
/// (`y ↦ a + b·y`, `b > 0`): every chord error of such a curve is the
/// family member's times `b²`, so one solve yields a partition that is
/// optimal for all of them.
///
/// # Errors
///
/// Returns [`TransformError::InvalidSegmentCount`] when `max_segments` is 0.
pub fn kept_indices(curve: &PiecewiseLinear, max_segments: usize) -> Result<Vec<usize>> {
    partition(curve, max_segments).map(|(kept, _)| kept)
}

/// The optimal kept indices of `curve` and their DP objective.
fn partition(curve: &PiecewiseLinear, max_segments: usize) -> Result<(Vec<usize>, f64)> {
    let n = curve.points().len();
    if max_segments == 0 {
        return Err(TransformError::InvalidSegmentCount {
            requested: max_segments,
            available: n - 1,
        });
    }
    // Nothing to do: the curve already has few enough segments.
    if max_segments >= n - 1 {
        return Ok(((0..n).collect(), 0.0));
    }
    Ok(solve(curve.points(), max_segments))
}

/// Builds the curve through the control points of `curve` at the indices
/// `kept` (strictly increasing, first 0, last `len − 1`): the coarse curve
/// of a partition from [`kept_indices`], applied to any curve with the
/// same abscissae as the one it was solved on.
///
/// # Errors
///
/// Returns [`TransformError::PointOutOfRange`] for an index past the last
/// control point, and the [`PiecewiseLinear::new`] errors when the kept
/// points do not form a valid curve (unsorted indices, or a first or last
/// point that is not an endpoint).
///
/// # Examples
///
/// ```
/// use hebs_transform::plc::{kept_indices, select};
/// use hebs_transform::PiecewiseLinear;
///
/// let shape = PiecewiseLinear::from_samples(64, |x| x * x);
/// let scaled = PiecewiseLinear::from_samples(64, |x| 0.1 + 0.5 * x * x);
/// let kept = kept_indices(&shape, 4)?;
/// let coarse = select(&scaled, kept.iter().copied())?;
/// assert_eq!(coarse.segment_count(), kept.len() - 1);
/// # Ok::<(), hebs_transform::TransformError>(())
/// ```
pub fn select(
    curve: &PiecewiseLinear,
    kept: impl IntoIterator<Item = usize>,
) -> Result<PiecewiseLinear> {
    let points = curve.points();
    let selected = kept
        .into_iter()
        .map(|index| {
            points
                .get(index)
                .copied()
                .ok_or(TransformError::PointOutOfRange { index })
        })
        .collect::<Result<Vec<ControlPoint>>>()?;
    PiecewiseLinear::new(selected)
}

/// Runs the Eq. 9 dynamic program for `1 ≤ max_segments < points.len() − 1`
/// and returns the kept indices with the DP objective.
///
/// The chord errors live in one packed lower-triangular matrix, row `j`
/// holding the chords that end at point `j`, so the DP's innermost loop
/// (over chord starts) walks one contiguous row; `dp` and `parent` are
/// flat `(max_segments + 1) × n` tables. The additions and comparisons run
/// in the same order as the textbook nested-table form, so the result is
/// bit-identical to it (the tests keep that form as an oracle).
fn solve(points: &[ControlPoint], max_segments: usize) -> (Vec<usize>, f64) {
    let n = points.len();
    let chord = chord_errors(points);

    // dp[s·n + j] = minimum error of approximating points 0..=j with s
    // segments that end exactly at point j.
    let mut dp = vec![f64::INFINITY; (max_segments + 1) * n];
    let mut parent = vec![usize::MAX; (max_segments + 1) * n];
    dp[0] = 0.0;
    for s in 1..=max_segments {
        let (done, rest) = dp.split_at_mut(s * n);
        let previous = &done[(s - 1) * n..];
        let row = &mut rest[..n];
        let parents = &mut parent[s * n..(s + 1) * n];
        for j in 1..n {
            let ending_at_j = &chord[triangle_row(j)..triangle_row(j) + j];
            for i in (s - 1)..j {
                let prev = previous[i];
                if prev.is_finite() {
                    let cost = prev + ending_at_j[i];
                    if cost < row[j] {
                        row[j] = cost;
                        parents[j] = i;
                    }
                }
            }
        }
    }

    // The best solution may use fewer than max_segments segments.
    let mut best_s = 1;
    let mut best_err = dp[n + n - 1];
    for s in 1..=max_segments {
        let err = dp[s * n + n - 1];
        if err < best_err {
            best_err = err;
            best_s = s;
        }
    }

    // Backtrack the kept indices.
    let mut kept = Vec::with_capacity(best_s + 1);
    let mut j = n - 1;
    kept.push(j);
    for s in (1..=best_s).rev() {
        j = parent[s * n + j];
        kept.push(j);
    }
    kept.reverse();
    debug_assert_eq!(kept[0], 0);
    (kept, best_err)
}

/// Offset of row `j` in the packed lower-triangular chord matrix: rows
/// `0..j` hold `0 + 1 + … + (j − 1)` entries.
fn triangle_row(j: usize) -> usize {
    j * (j - 1) / 2
}

/// Precomputes, for every pair `i < j`, the squared error of replacing the
/// original points strictly between `i` and `j` with the chord `i → j`,
/// stored at `triangle_row(j) + i`.
///
/// Runs in O(n²) (the complexity the DP above assumes): the deviation of an
/// interior point from the chord is `Δy − s·Δx` with `Δx`, `Δy` measured
/// from the chord start and `s` the chord slope, so its square expands into
/// `Δy² − 2s·ΔxΔy + s²Δx²`. For a fixed start the three sums over interior
/// points grow by one term as the chord end advances, making each pair O(1)
/// instead of O(n).
fn chord_errors(points: &[ControlPoint]) -> Vec<f64> {
    let n = points.len();
    let mut errors = vec![0.0f64; triangle_row(n)];
    for i in 0..n {
        let a = points[i];
        let (mut sum_dy2, mut sum_dxdy, mut sum_dx2) = (0.0f64, 0.0f64, 0.0f64);
        for j in (i + 2)..n {
            // Point j−1 was the previous chord end and is now interior.
            let p = points[j - 1];
            let dx = p.x - a.x;
            let dy = p.y - a.y;
            sum_dy2 += dy * dy;
            sum_dxdy += dx * dy;
            sum_dx2 += dx * dx;
            let b = points[j];
            let slope = (b.y - a.y) / (b.x - a.x);
            errors[triangle_row(j) + i] =
                (sum_dy2 - 2.0 * slope * sum_dxdy + slope * slope * sum_dx2).max(0.0);
        }
    }
    errors
}

#[cfg(test)]
mod tests_chord_errors {
    use super::*;

    /// The O(n³) reference the fast precomputation must agree with.
    fn naive_chord_errors(points: &[ControlPoint]) -> Vec<Vec<f64>> {
        let n = points.len();
        let mut errors = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let a = points[i];
                let b = points[j];
                let dx = b.x - a.x;
                let mut sum = 0.0;
                for p in &points[i + 1..j] {
                    let t = (p.x - a.x) / dx;
                    let chord_y = a.y + t * (b.y - a.y);
                    let d = p.y - chord_y;
                    sum += d * d;
                }
                errors[i][j] = sum;
            }
        }
        errors
    }

    /// The nested-table DP the flat [`solve`] replaced, kept verbatim
    /// (with its own incremental chord table) as the bit-exact oracle.
    fn nested_reference(points: &[ControlPoint], max_segments: usize) -> (Vec<usize>, f64) {
        let n = points.len();
        let mut chord_error = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            let a = points[i];
            let (mut sum_dy2, mut sum_dxdy, mut sum_dx2) = (0.0f64, 0.0f64, 0.0f64);
            for j in (i + 2)..n {
                let p = points[j - 1];
                let dx = p.x - a.x;
                let dy = p.y - a.y;
                sum_dy2 += dy * dy;
                sum_dxdy += dx * dy;
                sum_dx2 += dx * dx;
                let b = points[j];
                let slope = (b.y - a.y) / (b.x - a.x);
                chord_error[i][j] =
                    (sum_dy2 - 2.0 * slope * sum_dxdy + slope * slope * sum_dx2).max(0.0);
            }
        }
        let inf = f64::INFINITY;
        let mut dp = vec![vec![inf; n]; max_segments + 1];
        let mut parent = vec![vec![usize::MAX; n]; max_segments + 1];
        dp[0][0] = 0.0;
        for s in 1..=max_segments {
            for j in 1..n {
                for i in (s - 1)..j {
                    let prev = dp[s - 1][i];
                    if prev.is_finite() {
                        let cost = prev + chord_error[i][j];
                        if cost < dp[s][j] {
                            dp[s][j] = cost;
                            parent[s][j] = i;
                        }
                    }
                }
            }
        }
        let mut best_s = 1;
        let mut best_err = dp[1][n - 1];
        for (s, row) in dp.iter().enumerate().take(max_segments + 1).skip(1) {
            if row[n - 1] < best_err {
                best_err = row[n - 1];
                best_s = s;
            }
        }
        let mut kept = Vec::with_capacity(best_s + 1);
        let mut j = n - 1;
        let mut s = best_s;
        kept.push(j);
        while s > 0 {
            j = parent[s][j];
            kept.push(j);
            s -= 1;
        }
        kept.reverse();
        (kept, best_err)
    }

    #[test]
    fn incremental_chord_errors_match_the_naive_sum() {
        let curve = PiecewiseLinear::from_samples(48, |x| (x * 2.2).sin().abs() * 0.5 + x * 0.4);
        let points = curve.points();
        let fast = chord_errors(points);
        let slow = naive_chord_errors(points);
        for j in 1..points.len() {
            for i in 0..j {
                let packed = fast[triangle_row(j) + i];
                assert!(
                    (packed - slow[i][j]).abs() < 1e-9,
                    "chord ({i}, {j}): fast {packed} vs naive {}",
                    slow[i][j]
                );
            }
        }
    }

    #[test]
    fn flat_dp_is_bit_identical_to_the_nested_reference() {
        let mut rng = xorshift(0x5eed);
        let mut curves = vec![
            PiecewiseLinear::from_samples(256, |x| x.powf(0.4)),
            PiecewiseLinear::from_samples(256, |x| (x * 9.0).sin().abs() * 0.2 + x * 0.8),
            // A staircase: long exactly-collinear plateaus make many exact
            // ties, which both forms must break the same way.
            PiecewiseLinear::from_samples(256, |x| (x * 6.0).floor() / 6.0),
        ];
        for _ in 0..6 {
            // A random CDF: the shape of a histogram-equalization curve.
            let mut cumulative = 0.0;
            let steps: Vec<f64> = (0..256)
                .map(|_| {
                    cumulative += if rng() < 0.3 { 0.0 } else { rng() };
                    cumulative
                })
                .collect();
            let total = steps[255].max(1e-9);
            curves.push(PiecewiseLinear::from_samples(256, |x| {
                steps[(x * 255.0).round() as usize] / total
            }));
        }
        for curve in &curves {
            for segments in [1usize, 2, 3, 7, 12] {
                let (kept, error) = solve(curve.points(), segments);
                let (expected_kept, expected_error) = nested_reference(curve.points(), segments);
                assert_eq!(kept, expected_kept, "{segments} segments");
                assert_eq!(
                    error.to_bits(),
                    expected_error.to_bits(),
                    "{segments} segments"
                );
            }
        }
    }

    /// A tiny deterministic generator in `[0, 1)` (this crate has no RNG
    /// dependency).
    fn xorshift(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::PixelTransform;

    #[test]
    fn coarsening_a_line_is_exact_with_one_segment() {
        let exact = PiecewiseLinear::from_samples(64, |x| x);
        let result = coarsen(&exact, 1).unwrap();
        assert_eq!(result.curve.segment_count(), 1);
        assert!(result.squared_error < 1e-18);
        assert!(exact.mse_against(&result.curve, 256) < 1e-18);
    }

    #[test]
    fn coarsening_keeps_endpoints() {
        let exact = PiecewiseLinear::from_samples(100, |x| x.powf(0.3));
        let result = coarsen(&exact, 5).unwrap();
        let pts = result.curve.points();
        assert_eq!(pts[0].x, 0.0);
        assert_eq!(pts[pts.len() - 1].x, 1.0);
        assert_eq!(result.kept_indices[0], 0);
        assert_eq!(*result.kept_indices.last().unwrap(), 99);
    }

    #[test]
    fn more_segments_never_increase_error() {
        let exact = PiecewiseLinear::from_samples(80, |x| x * x);
        let mut previous = f64::INFINITY;
        for m in 1..=10 {
            let result = coarsen(&exact, m).unwrap();
            assert!(
                result.squared_error <= previous + 1e-12,
                "error increased going to {m} segments"
            );
            previous = result.squared_error;
        }
    }

    #[test]
    fn requesting_enough_segments_returns_original() {
        let exact = PiecewiseLinear::from_samples(16, |x| x.sqrt());
        let result = coarsen(&exact, 15).unwrap();
        assert_eq!(result.curve, exact);
        assert_eq!(result.squared_error, 0.0);
        let more = coarsen(&exact, 100).unwrap();
        assert_eq!(more.curve, exact);
    }

    #[test]
    fn zero_segments_is_rejected() {
        let exact = PiecewiseLinear::identity();
        assert!(matches!(
            coarsen(&exact, 0),
            Err(TransformError::InvalidSegmentCount { requested: 0, .. })
        ));
    }

    #[test]
    fn coarse_curve_has_at_most_requested_segments() {
        let exact = PiecewiseLinear::from_samples(200, |x| (x * 6.0).sin().abs() * 0.3 + x * 0.7);
        for m in [2usize, 4, 8, 12] {
            let result = coarsen(&exact, m).unwrap();
            assert!(result.curve.segment_count() <= m);
        }
    }

    #[test]
    fn coarsening_a_step_like_curve_places_breakpoint_at_the_step() {
        // A curve that is flat, then rises steeply, then is flat again: the
        // two interior breakpoints should land near the corners of the step.
        let exact = PiecewiseLinear::from_samples(101, |x| {
            if x < 0.45 {
                0.0
            } else if x > 0.55 {
                1.0
            } else {
                (x - 0.45) / 0.10
            }
        });
        let result = coarsen(&exact, 3).unwrap();
        let xs: Vec<f64> = result.curve.points().iter().map(|p| p.x).collect();
        assert!(xs.iter().any(|&x| (x - 0.45).abs() < 0.03));
        assert!(xs.iter().any(|&x| (x - 0.55).abs() < 0.03));
        assert!(result.squared_error < 1e-3);
    }

    #[test]
    fn dp_error_matches_recomputed_error() {
        let exact = PiecewiseLinear::from_samples(60, |x| x.powf(2.5));
        let result = coarsen(&exact, 4).unwrap();
        // Recompute the objective directly from the kept indices.
        let pts = exact.points();
        let mut recomputed = 0.0;
        for w in result.kept_indices.windows(2) {
            let (i, j) = (w[0], w[1]);
            let a = pts[i];
            let b = pts[j];
            for p in &pts[i + 1..j] {
                let t = (p.x - a.x) / (b.x - a.x);
                let chord = a.y + t * (b.y - a.y);
                recomputed += (p.y - chord) * (p.y - chord);
            }
        }
        assert!((recomputed - result.squared_error).abs() < 1e-12);
    }

    #[test]
    fn mse_normalization() {
        let exact = PiecewiseLinear::from_samples(50, |x| x.sqrt());
        let result = coarsen(&exact, 3).unwrap();
        assert!((result.mse(50) - result.squared_error / 50.0).abs() < 1e-15);
        assert_eq!(result.mse(0), 0.0);
    }

    #[test]
    fn kept_indices_and_select_reproduce_coarsen() {
        let exact = PiecewiseLinear::from_samples(90, |x| x.powf(1.7));
        for m in [1usize, 3, 7, 89, 200] {
            let result = coarsen(&exact, m).unwrap();
            let kept = kept_indices(&exact, m).unwrap();
            assert_eq!(kept, result.kept_indices);
            assert_eq!(select(&exact, kept).unwrap(), result.curve);
        }
        assert!(kept_indices(&exact, 0).is_err());
    }

    #[test]
    fn a_partition_transfers_to_affinely_scaled_ordinates() {
        // Chord errors of `lo + span·y` are `span²` times those of `y`, so
        // the shape's partition stays optimal for every scaled copy.
        let shape = PiecewiseLinear::from_samples(128, |x| (x * 5.0).sin().abs() * 0.3 + x * 0.7);
        let kept = kept_indices(&shape, 5).unwrap();
        for (lo, span) in [(0.0, 0.25), (0.1, 0.5), (0.2, 0.8)] {
            let scaled = PiecewiseLinear::from_samples(128, |x| lo + span * shape.evaluate(x));
            let direct = coarsen(&scaled, 5).unwrap();
            let reused = select(&scaled, kept.iter().copied()).unwrap();
            let error = |curve: &PiecewiseLinear| scaled.mse_against(curve, 1024);
            assert!((error(&reused) - error(&direct.curve)).abs() <= 1e-12);
        }
    }

    #[test]
    fn select_rejects_bad_indices() {
        let exact = PiecewiseLinear::from_samples(10, |x| x);
        assert!(matches!(
            select(&exact, [0, 4, 10]),
            Err(TransformError::PointOutOfRange { index: 10 })
        ));
        assert!(
            select(&exact, [0, 6, 4, 9]).is_err(),
            "indices must increase"
        );
        assert!(
            select(&exact, [0, 4]).is_err(),
            "the last point must be kept"
        );
        assert_eq!(select(&exact, [0, 9]).unwrap().segment_count(), 1);
    }

    #[test]
    fn coarse_curve_is_monotone_and_valid_transform() {
        let exact = PiecewiseLinear::from_samples(128, |x| 0.2 + 0.8 * x.powf(0.5));
        let result = coarsen(&exact, 6).unwrap();
        assert!(result.curve.to_lut().is_monotone());
        assert!(result.curve.evaluate(0.5) >= result.curve.evaluate(0.4));
    }
}

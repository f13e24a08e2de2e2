//! Structure-of-arrays point storage for the block distance kernels.
//!
//! [`Point`] stores each point's coordinates in its own heap allocation —
//! right for construction-time validation, hostile to the `O(n·τ)` scans
//! every algorithm in this workspace bottoms out in: a nearest-center pass
//! over `Vec<Point>` chases one pointer per point, so the prefetcher sees
//! no contiguity and the compiler cannot vectorize across points.
//!
//! [`PointSet`] keeps all `n·dim` coordinates in **one** contiguous
//! point-major `f64` block (row `i` is `coords[i·dim .. (i+1)·dim]`). That
//! layout is byte-identical to the shard codec's on-disk coordinate block,
//! so a mmap'd shard can be viewed as a `PointSet` with zero copies through
//! [`StableF64s`] — the on-disk layout and the in-memory kernel layout are
//! the same thing.
//!
//! [`PointRef`] is a borrowed view of one row, and the [`Coordinates`]
//! trait lets metrics and algorithms treat `Point` and `PointRef`
//! interchangeably: the zero-copy worker path runs the exact same kernels
//! as the owned path, on the exact same bits.
//!
//! # Invariant
//!
//! Like [`Point`], every coordinate in a `PointSet` is finite — enforced at
//! construction ([`PointSet::try_from_shared`] validates untrusted buffers,
//! mirroring [`Point::try_new`]) so the distance kernels never re-check for
//! `NaN`/`inf` in their hot loops and comparisons stay total.

use std::fmt;
use std::sync::Arc;

use crate::point::Point;

/// An immutable `f64` buffer at a stable address, usable as the backing
/// block of a [`PointSet`] without copying.
///
/// The artifact store implements this for memory-mapped shard entries, so
/// a worker views its shard's coordinate block in place; the
/// [`Vec<f64>`] implementation backs the copy constructors.
///
/// # Safety
///
/// Implementations must return the **same** buffer from every call:
/// immutable, at a stable address, and valid for as long as the value is
/// alive. The point set holds the value behind an `Arc` and keeps a raw
/// view of the buffer for its own lifetime, so a buffer that moves,
/// shrinks, or is mutated after construction is undefined behaviour.
pub unsafe trait StableF64s: Send + Sync + 'static {
    /// The backing buffer.
    fn stable_f64s(&self) -> &[f64];
}

// SAFETY: behind the `Arc` the point set holds, a `Vec` cannot be mutated
// or reallocated (no interior mutability; `Arc::get_mut` fails while the
// point set's clone is alive), so the heap buffer is stable and immutable.
unsafe impl StableF64s for Vec<f64> {
    fn stable_f64s(&self) -> &[f64] {
        self
    }
}

/// Anything that exposes a point as a flat finite-`f64` coordinate slice.
///
/// Implemented by [`Point`] (owned, per-point allocation) and
/// [`PointRef`] (borrowed row of a [`PointSet`]); the concrete metrics are
/// generic over this trait, so every algorithm in the workspace runs
/// unchanged — and bit-identically — on either representation.
pub trait Coordinates: Send + Sync {
    /// The coordinates as a slice. Implementations guarantee every value
    /// is finite (their constructors validate).
    fn coords(&self) -> &[f64];

    /// The dimension of the point.
    #[inline]
    fn dim(&self) -> usize {
        self.coords().len()
    }
}

impl Coordinates for Point {
    #[inline]
    fn coords(&self) -> &[f64] {
        Point::coords(self)
    }
}

impl Coordinates for PointRef<'_> {
    #[inline]
    fn coords(&self) -> &[f64] {
        self.coords
    }
}

/// A zero-copy view of one point (one row) of a [`PointSet`].
///
/// Two words (pointer + length), `Copy`, no allocation: a `Vec<PointRef>`
/// over a mapped shard costs `16·n` bytes of views, never a coordinate
/// copy.
#[derive(Clone, Copy, PartialEq)]
pub struct PointRef<'a> {
    coords: &'a [f64],
}

impl<'a> PointRef<'a> {
    /// Views a validated coordinate row. Crate-internal: rows only come
    /// from containers that already enforced the finiteness invariant.
    #[inline]
    pub(crate) fn from_validated(coords: &'a [f64]) -> Self {
        debug_assert!(!coords.is_empty());
        debug_assert!(coords.iter().all(|c| c.is_finite()));
        PointRef { coords }
    }

    /// The coordinates as a slice (with the view's full lifetime).
    #[inline]
    pub fn coords(&self) -> &'a [f64] {
        self.coords
    }

    /// The dimension of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Copies the row into an owned [`Point`].
    pub fn to_point(&self) -> Point {
        Point::new(self.coords.to_vec())
    }
}

impl fmt::Debug for PointRef<'_> {
    /// `Debug` like `Point`'s: a plain coordinate list.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.coords.iter()).finish()
    }
}

/// Error returned when constructing a [`PointSet`] from invalid data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointSetError {
    /// A coordinate was `NaN` or infinite, at flat index
    /// `point * dim + coordinate` of the block.
    NonFinite {
        /// Flat index of the offending value in the coordinate block.
        index: usize,
    },
    /// The backing buffer's length does not equal `n · dim`.
    ShapeMismatch {
        /// Expected element count (`n · dim`).
        expected: usize,
        /// Actual element count of the buffer.
        actual: usize,
    },
    /// `dim == 0` with `n > 0`: points must have at least one coordinate.
    ZeroDim,
    /// A source [`Point`] had a different dimension than the first.
    DimMismatch {
        /// Index of the offending point.
        index: usize,
        /// Dimension of the first point.
        expected: usize,
        /// Dimension of the offending point.
        actual: usize,
    },
}

impl fmt::Display for PointSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointSetError::NonFinite { index } => {
                write!(f, "coordinate at flat index {index} is not finite")
            }
            PointSetError::ShapeMismatch { expected, actual } => {
                write!(f, "buffer holds {actual} f64s, shape needs {expected}")
            }
            PointSetError::ZeroDim => write!(f, "points must have at least one coordinate"),
            PointSetError::DimMismatch {
                index,
                expected,
                actual,
            } => write!(
                f,
                "point {index} has dimension {actual}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for PointSetError {}

/// A structure-of-arrays point set: `n` points of dimension `dim` in one
/// contiguous point-major `f64` block.
///
/// The block lives behind an `Arc<dyn StableF64s>` — an owned `Vec<f64>`
/// for the copy constructors, or an external stable buffer (e.g. the
/// store's mmap of a shard) for the zero-copy path. A raw view of the
/// buffer is cached at construction (the [`StableF64s`] contract makes it
/// address-stable), so row access never pays dynamic dispatch.
pub struct PointSet {
    ptr: *const f64,
    n: usize,
    dim: usize,
    _owner: Arc<dyn StableF64s>,
}

// SAFETY: the viewed buffer is immutable and the owner is Send + Sync
// (StableF64s supertraits), so sharing or sending the raw view cannot
// race.
unsafe impl Send for PointSet {}
unsafe impl Sync for PointSet {}

impl Clone for PointSet {
    fn clone(&self) -> Self {
        PointSet {
            ptr: self.ptr,
            n: self.n,
            dim: self.dim,
            _owner: Arc::clone(&self._owner),
        }
    }
}

impl PointSet {
    /// Copies `points` into a fresh contiguous block.
    ///
    /// # Panics
    ///
    /// Panics if the points do not all share one dimension; use
    /// [`PointSet::try_from_points`] to handle that as an error.
    pub fn from_points(points: &[Point]) -> PointSet {
        Self::try_from_points(points).expect("invalid point set")
    }

    /// Copies `points` into a fresh contiguous block, requiring a single
    /// common dimension.
    ///
    /// # Errors
    ///
    /// Returns [`PointSetError::DimMismatch`] if the points disagree on
    /// dimension. (Finiteness needs no re-check: every [`Point`] was
    /// validated at its own construction.)
    pub fn try_from_points(points: &[Point]) -> Result<PointSet, PointSetError> {
        let n = points.len();
        let dim = points.first().map_or(0, Point::dim);
        let mut block = Vec::with_capacity(n * dim);
        for (index, p) in points.iter().enumerate() {
            if p.dim() != dim {
                return Err(PointSetError::DimMismatch {
                    index,
                    expected: dim,
                    actual: p.dim(),
                });
            }
            block.extend_from_slice(p.coords());
        }
        Ok(Self::from_validated_owner(Arc::new(block), n, dim))
    }

    /// Views `n · dim` coordinates in `owner`'s stable buffer **without
    /// copying** — the shard-to-kernel zero-copy path.
    ///
    /// Validates the same invariant as [`Point::try_new`]: the shape must
    /// match exactly and every coordinate must be finite, so a corrupt
    /// (e.g. `NaN`-bearing) mapped shard is a clean error here rather than
    /// a poisoned distance scan later.
    ///
    /// # Errors
    ///
    /// [`PointSetError::ShapeMismatch`] if the buffer is not exactly
    /// `n · dim` values, [`PointSetError::ZeroDim`] if `n > 0` with
    /// `dim == 0`, and [`PointSetError::NonFinite`] on the first `NaN` or
    /// infinite coordinate.
    pub fn try_from_shared(
        owner: Arc<dyn StableF64s>,
        n: usize,
        dim: usize,
    ) -> Result<PointSet, PointSetError> {
        if n > 0 && dim == 0 {
            return Err(PointSetError::ZeroDim);
        }
        let expected = n.checked_mul(dim).ok_or(PointSetError::ShapeMismatch {
            expected: usize::MAX,
            actual: owner.stable_f64s().len(),
        })?;
        let slice = owner.stable_f64s();
        if slice.len() != expected {
            return Err(PointSetError::ShapeMismatch {
                expected,
                actual: slice.len(),
            });
        }
        if let Some(index) = slice.iter().position(|c| !c.is_finite()) {
            return Err(PointSetError::NonFinite { index });
        }
        Ok(Self::from_validated_owner(owner, n, dim))
    }

    /// Caches the raw view once the invariants hold.
    fn from_validated_owner(owner: Arc<dyn StableF64s>, n: usize, dim: usize) -> PointSet {
        let ptr = owner.stable_f64s().as_ptr();
        PointSet {
            ptr,
            n,
            dim,
            _owner: owner,
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the set holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The common dimension of the points (0 only for an empty set).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The whole contiguous coordinate block, point-major.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        // SAFETY: `ptr` was derived from the owner's stable, immutable
        // buffer of exactly `n · dim` values, which the held `Arc` keeps
        // alive (see `StableF64s`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.n * self.dim) }
    }

    /// The coordinates of point `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.coords()[i * self.dim..(i + 1) * self.dim]
    }

    /// A zero-copy view of point `i`.
    #[inline]
    pub fn get(&self, i: usize) -> PointRef<'_> {
        PointRef::from_validated(self.row(i))
    }

    /// Iterates zero-copy views of all points, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PointRef<'_>> + '_ {
        (0..self.n).map(|i| self.get(i))
    }

    /// Copies every row out into owned [`Point`]s (the inverse of
    /// [`PointSet::from_points`]).
    pub fn to_points(&self) -> Vec<Point> {
        self.iter().map(|r| r.to_point()).collect()
    }
}

impl fmt::Debug for PointSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PointSet")
            .field("n", &self.n)
            .field("dim", &self.dim)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(rows: &[&[f64]]) -> Vec<Point> {
        rows.iter().map(|r| Point::new(r.to_vec())).collect()
    }

    #[test]
    fn copies_points_into_one_block() {
        let points = pts(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let set = PointSet::from_points(&points);
        assert_eq!(set.len(), 3);
        assert_eq!(set.dim(), 2);
        assert_eq!(set.coords(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(set.row(1), &[3.0, 4.0]);
        assert_eq!(set.get(2).coords(), &[5.0, 6.0]);
        assert_eq!(set.to_points(), points);
        let views: Vec<PointRef<'_>> = set.iter().collect();
        assert_eq!(views.len(), 3);
        assert_eq!(views[0].dim(), 2);
        assert_eq!(views[0].to_point(), points[0]);
    }

    #[test]
    fn empty_set_is_fine() {
        let set = PointSet::from_points(&[]);
        assert!(set.is_empty());
        assert_eq!(set.dim(), 0);
        assert_eq!(set.coords().len(), 0);
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn rejects_mixed_dimensions() {
        let points = pts(&[&[1.0, 2.0], &[3.0]]);
        let err = PointSet::try_from_points(&points).unwrap_err();
        assert_eq!(
            err,
            PointSetError::DimMismatch {
                index: 1,
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn shared_view_is_zero_copy() {
        let block: Arc<Vec<f64>> = Arc::new(vec![1.0, 2.0, 3.0, 4.0]);
        let set = PointSet::try_from_shared(block.clone(), 2, 2).unwrap();
        assert!(std::ptr::eq(set.coords().as_ptr(), block.as_ptr()));
        let cloned = set.clone();
        drop(set);
        // The clone keeps the owner alive through its Arc.
        assert_eq!(cloned.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn shared_view_validates_shape_and_finiteness() {
        let bad_shape = PointSet::try_from_shared(Arc::new(vec![0.0; 5]), 2, 2).unwrap_err();
        assert_eq!(
            bad_shape,
            PointSetError::ShapeMismatch {
                expected: 4,
                actual: 5
            }
        );
        let zero_dim = PointSet::try_from_shared(Arc::new(Vec::<f64>::new()), 3, 0).unwrap_err();
        assert_eq!(zero_dim, PointSetError::ZeroDim);
        let nan =
            PointSet::try_from_shared(Arc::new(vec![0.0, 1.0, f64::NAN, 3.0]), 2, 2).unwrap_err();
        assert_eq!(nan, PointSetError::NonFinite { index: 2 });
        let inf = PointSet::try_from_shared(Arc::new(vec![f64::INFINITY]), 1, 1).unwrap_err();
        assert_eq!(inf, PointSetError::NonFinite { index: 0 });
        // Errors display cleanly.
        assert!(nan.to_string().contains("not finite"));
        assert!(zero_dim.to_string().contains("at least one"));
    }

    #[test]
    #[should_panic(expected = "invalid point set")]
    fn from_points_panics_on_mixed_dims() {
        let points = pts(&[&[1.0], &[1.0, 2.0]]);
        let _ = PointSet::from_points(&points);
    }

    #[test]
    fn coordinates_trait_is_interchangeable() {
        let points = pts(&[&[1.5, -2.0]]);
        let set = PointSet::from_points(&points);
        fn flat<C: Coordinates>(c: &C) -> (usize, Vec<f64>) {
            (c.dim(), c.coords().to_vec())
        }
        assert_eq!(flat(&points[0]), flat(&set.get(0)));
    }

    #[test]
    fn debug_formats() {
        let set = PointSet::from_points(&pts(&[&[1.0, 2.0]]));
        assert_eq!(format!("{:?}", set.get(0)), "[1.0, 2.0]");
        let s = format!("{set:?}");
        assert!(s.contains("PointSet") && s.contains("dim"), "{s}");
    }
}

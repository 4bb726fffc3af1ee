//! Per-resource managers.
//!
//! GARA "contains separate managers for individual resources (e.g. CPU,
//! network bandwidth and storage bandwidth)". A [`ResourceManager`] tracks
//! one bucket's capacity and usage; the composite API aggregates one
//! manager per (server, kind) bucket and keeps each reservation's demand,
//! which is all a release needs to know.

use crate::resource::ResourceKey;

/// Why a single-bucket reservation failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketFull {
    /// The saturated bucket.
    pub key: ResourceKey,
    /// Amount requested.
    pub requested: f64,
    /// Amount still available.
    pub available: f64,
}

impl std::fmt::Display for BucketFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: requested {:.3} exceeds available {:.3}",
            self.key, self.requested, self.available
        )
    }
}

impl std::error::Error for BucketFull {}

/// Slack allowed on capacity comparisons, absorbing the rounding of summed
/// reservations.
const CAPACITY_TOLERANCE: f64 = 1e-9;

/// Whether `amount` fits a bucket of this total `capacity`. Monotone in
/// `capacity`: what fits the smallest of several capacities fits each.
pub(crate) fn within_capacity(capacity: f64, amount: f64) -> bool {
    amount <= capacity + CAPACITY_TOLERANCE
}

/// Whether `amount` can be reserved in a bucket with `available` left.
/// Monotone in `available`: what a bucket refuses, every bucket with no
/// more left refuses too.
pub(crate) fn reservable(available: f64, amount: f64) -> bool {
    amount >= 0.0 && amount.is_finite() && amount <= available + CAPACITY_TOLERANCE
}

/// A demand's projection onto the buckets: the LRB cost of Eq. (1),
/// `max_i (U_i + r_i) / R_i`, and whether every entry fits its bucket's
/// total capacity. Built by folding in the demand's entries one by one in
/// [`CompositeQosApi::project`](crate::CompositeQosApi::project).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// The largest projected bucket fill (infinite when a bucket is
    /// missing).
    pub max_fill: f64,
    /// Every entry fits its bucket's capacity (false when a bucket is
    /// missing).
    pub fits_capacity: bool,
}

impl Projection {
    /// The projection of the empty demand.
    pub(crate) const EMPTY: Projection = Projection { max_fill: 0.0, fits_capacity: true };

    /// Folds in one demand entry against its bucket (`None` when the
    /// bucket is unmanaged). A zero amount changes nothing, just as a
    /// [`ResourceVector`](crate::ResourceVector) never holds one.
    #[inline]
    pub(crate) fn with(self, bucket: Option<&ResourceManager>, amount: f64) -> Projection {
        if amount == 0.0 {
            return self;
        }
        match bucket {
            Some(b) => Projection {
                max_fill: self.max_fill.max(b.fill_with(amount)),
                fits_capacity: self.fits_capacity && b.within_capacity(amount),
            },
            None => Projection { max_fill: f64::INFINITY, fits_capacity: false },
        }
    }
}

/// Tracks capacity and usage for one resource bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceManager {
    capacity: f64,
    used: f64,
}

impl ResourceManager {
    /// Creates an empty manager with the given capacity.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0 && capacity.is_finite(), "capacity must be positive");
        ResourceManager { capacity, used: 0.0 }
    }

    /// Total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Currently reserved amount.
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Amount still reservable.
    pub fn available(&self) -> f64 {
        (self.capacity - self.used).max(0.0)
    }

    /// Fraction of capacity in use — the bucket's fill level in the LRB
    /// picture (Fig 3).
    pub fn fill(&self) -> f64 {
        self.used / self.capacity
    }

    /// Fill level if `amount` more were reserved (may exceed 1.0, which
    /// admission rejects).
    pub fn fill_with(&self, amount: f64) -> f64 {
        (self.used + amount) / self.capacity
    }

    /// Whether `amount` fits the bucket's total capacity, whatever the
    /// usage — the plan generator's instant feasibility cut.
    pub(crate) fn within_capacity(&self, amount: f64) -> bool {
        within_capacity(self.capacity, amount)
    }

    /// Whether `amount` can be reserved. Malformed demands (negative, NaN,
    /// infinite) are never reservable — admission paths feed this straight
    /// from plan resource vectors, so garbage must bounce as a rejection
    /// rather than corrupt `used`.
    pub fn can_reserve(&self, amount: f64) -> bool {
        reservable(self.available(), amount)
    }

    /// Reserves `amount` if [`can_reserve`](Self::can_reserve) allows it,
    /// and says whether it did; a refusal changes nothing.
    #[must_use]
    pub fn reserve(&mut self, amount: f64) -> bool {
        let fits = self.can_reserve(amount);
        if fits {
            self.used += amount;
        }
        fits
    }

    /// Returns `amount` to the bucket, never leaving it below empty.
    pub fn release(&mut self, amount: f64) {
        self.used = (self.used - amount).max(0.0);
    }

    /// Re-rates the bucket to a new total capacity (link degradation /
    /// recovery). Usage is untouched: shrinking below `used` leaves the
    /// bucket oversubscribed (`fill() > 1`), which only blocks *new*
    /// admissions — the paper's model degrades in-flight sessions via
    /// renegotiation, not forced eviction.
    ///
    /// # Panics
    /// Panics if `capacity` is non-positive or non-finite, mirroring
    /// [`ResourceManager::new`]: capacities come from operator-side
    /// topology/fault declarations, not the admission path.
    pub fn set_capacity(&mut self, capacity: f64) {
        assert!(capacity > 0.0 && capacity.is_finite(), "capacity must be positive");
        self.capacity = capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let mut m = ResourceManager::new(100.0);
        assert!(m.reserve(40.0));
        assert_eq!(m.used(), 40.0);
        assert_eq!(m.available(), 60.0);
        assert!((m.fill() - 0.4).abs() < 1e-12);
        m.release(40.0);
        assert_eq!(m.used(), 0.0);
    }

    #[test]
    fn over_reservation_rejected() {
        let mut m = ResourceManager::new(100.0);
        assert!(m.reserve(80.0));
        assert!(!m.reserve(30.0));
        assert!((m.available() - 20.0).abs() < 1e-9);
        // State unchanged after failure.
        assert_eq!(m.used(), 80.0);
    }

    #[test]
    fn fill_with_projects_demand() {
        let mut m = ResourceManager::new(100.0);
        assert!(m.reserve(42.0));
        assert!((m.fill_with(10.0) - 0.52).abs() < 1e-12);
        // Projection can exceed 1.0; admission is the caller's decision.
        assert!(m.fill_with(90.0) > 1.0);
    }

    #[test]
    fn zero_reservation_allowed() {
        let mut m = ResourceManager::new(100.0);
        assert!(m.reserve(0.0));
        assert_eq!(m.used(), 0.0);
        m.release(0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ResourceManager::new(0.0);
    }

    #[test]
    fn malformed_amounts_reject_instead_of_panicking() {
        let mut m = ResourceManager::new(100.0);
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!m.can_reserve(bad));
            assert!(!m.reserve(bad), "reserve({bad}) must reject");
            assert_eq!(m.used(), 0.0, "failed reserve must not corrupt usage");
        }
    }

    #[test]
    fn set_capacity_rerates_without_touching_usage() {
        let mut m = ResourceManager::new(100.0);
        assert!(m.reserve(60.0));
        m.set_capacity(50.0);
        assert_eq!(m.capacity(), 50.0);
        assert_eq!(m.used(), 60.0);
        assert!(m.fill() > 1.0, "shrink below used oversubscribes");
        assert!(!m.can_reserve(1.0));
        m.set_capacity(200.0);
        assert!(m.can_reserve(100.0));
        m.release(60.0);
        assert_eq!(m.used(), 0.0);
    }
}

//! Warm-start state the session carries between iterations so model
//! maintenance is incremental instead of cold.
//!
//! Every iteration used to refit CART from scratch and re-seed k-means
//! with a fresh k-means++ pass; as labels accumulate, that model cost
//! dominates the per-iteration latency budget. The structs here hold the
//! previous iteration's model state so the next iteration can start from
//! it: [`MisclassState`] carries the false-negative cluster centroids into
//! [`aide_ml::KMeans::fit_warm`], and [`DiscoveryState`] does the same for
//! the per-level discovery clusterings (fitted once per level today, so
//! the cache also makes a future level re-fit warm). The CART counterpart
//! lives in [`aide_ml::IncrementalTree`], owned by the session directly.
//!
//! Warm starts are deterministic and consume *no* RNG draws.

/// Misclassified-exploitation warm-start state: the false-negative
/// k-means model of the previous iteration (paper §4.2 clusters false
/// negatives so one extraction query serves each likely-relevant area).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MisclassState {
    /// Flat row-major centroids of the previous FN clustering, or empty
    /// when no clustered round has run yet.
    centroids: Vec<f64>,
    /// Dimensionality of the stored centroids.
    dims: usize,
    /// How often the warm path was taken.
    warm_rounds: usize,
    /// How often a cold k-means++ seeding ran.
    cold_rounds: usize,
}

impl MisclassState {
    /// Centroids usable to warm-start a `k`-cluster fit over `dims`
    /// attributes, or `None` when the stored shape does not match (the
    /// cluster count changed between iterations, or nothing is stored).
    pub fn warm_centroids(&self, dims: usize, k: usize) -> Option<&[f64]> {
        (self.dims == dims && !self.centroids.is_empty() && self.centroids.len() == k * dims)
            .then_some(self.centroids.as_slice())
    }

    /// Records the centroids a clustered round converged to, and whether
    /// that round was warm-started.
    pub fn record(&mut self, dims: usize, centroids: Vec<f64>, warm: bool) {
        self.dims = dims;
        self.centroids = centroids;
        if warm {
            self.warm_rounds += 1;
        } else {
            self.cold_rounds += 1;
        }
    }

    /// `(warm, cold)` round counts so far.
    pub fn rounds(&self) -> (usize, usize) {
        (self.warm_rounds, self.cold_rounds)
    }
}

/// Discovery-side warm-start state: converged centroids per exploration
/// level of the clustering strategy. Each level is fitted once when its
/// hierarchy is built, so this cache is consulted only when a level is
/// (re)built — e.g. the hybrid strategy constructing its cluster
/// hierarchy, or a future adaptive re-level — but recording it here keeps
/// the warm-start contract uniform across both k-means call sites.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiscoveryState {
    /// `(level, dims, centroids)` of every fitted discovery clustering.
    levels: Vec<(usize, usize, Vec<f64>)>,
}

impl DiscoveryState {
    /// Centroids usable to warm-start the `level` clustering with `k`
    /// clusters over `dims` attributes.
    pub fn warm_centroids(&self, level: usize, dims: usize, k: usize) -> Option<&[f64]> {
        self.levels
            .iter()
            .find(|(l, d, c)| *l == level && *d == dims && c.len() == k * dims)
            .map(|(_, _, c)| c.as_slice())
    }

    /// Records the centroids `level`'s clustering converged to.
    pub fn record(&mut self, level: usize, dims: usize, centroids: Vec<f64>) {
        if let Some(slot) = self.levels.iter_mut().find(|(l, _, _)| *l == level) {
            *slot = (level, dims, centroids);
        } else {
            self.levels.push((level, dims, centroids));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misclass_state_matches_shape_exactly() {
        let mut s = MisclassState::default();
        assert_eq!(s.warm_centroids(2, 3), None);
        s.record(2, vec![1.0; 6], false);
        assert_eq!(s.warm_centroids(2, 3), Some(&[1.0; 6][..]));
        // Wrong k, wrong dims: no warm start.
        assert_eq!(s.warm_centroids(2, 2), None);
        assert_eq!(s.warm_centroids(3, 2), None);
        s.record(2, vec![2.0; 4], true);
        assert_eq!(s.warm_centroids(2, 2), Some(&[2.0; 4][..]));
        assert_eq!(s.rounds(), (1, 1));
    }

    #[test]
    fn discovery_state_is_keyed_by_level() {
        let mut s = DiscoveryState::default();
        s.record(0, 2, vec![1.0; 8]);
        s.record(1, 2, vec![2.0; 16]);
        assert_eq!(s.warm_centroids(0, 2, 4), Some(&[1.0; 8][..]));
        assert_eq!(s.warm_centroids(1, 2, 8), Some(&[2.0; 16][..]));
        assert_eq!(s.warm_centroids(0, 2, 8), None);
        // Re-recording a level replaces it.
        s.record(0, 2, vec![3.0; 8]);
        assert_eq!(s.warm_centroids(0, 2, 4), Some(&[3.0; 8][..]));
    }
}

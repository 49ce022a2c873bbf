//! Core dataset types shared by every experiment.

/// An in-memory labelled dataset with flat `f32` feature vectors.
///
/// # Examples
///
/// ```
/// use rhychee_data::dataset::Dataset;
///
/// let ds = Dataset::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![0, 1], 2);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.feature_dim(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    features: Vec<Vec<f32>>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset, validating shape consistency.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch, feature dims are inconsistent, or any
    /// label is `>= num_classes`.
    pub fn new(features: Vec<Vec<f32>>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.len(), labels.len(), "sample/label count mismatch");
        if let Some(first) = features.first() {
            assert!(
                features.iter().all(|f| f.len() == first.len()),
                "inconsistent feature dimensions"
            );
        }
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range for {num_classes} classes"
        );
        Dataset { features, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn feature_dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Number of classes L.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The feature matrix.
    pub fn features(&self) -> &[Vec<f32>] {
        &self.features
    }

    /// Mutable access to the feature matrix (for in-place transforms such
    /// as standardization; shapes must be preserved).
    pub(crate) fn features_mut(&mut self) -> &mut [Vec<f32>] {
        &mut self.features
    }

    /// The label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Extracts the subset at the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Per-class sample counts.
    #[cfg(test)]
    pub(crate) fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

/// A train/test split of a generated dataset.
#[derive(Debug, Clone)]
pub struct TrainTest {
    /// Training partition.
    pub train: Dataset,
    /// Held-out test partition.
    pub test: Dataset,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            vec![vec![0.0; 3], vec![1.0; 3], vec![2.0; 3], vec![3.0; 3]],
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn accessors() {
        let ds = tiny();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.feature_dim(), 3);
        assert_eq!(ds.num_classes(), 2);
        assert_eq!(ds.class_counts(), vec![2, 2]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn subset_selects_rows() {
        let ds = tiny();
        let sub = ds.subset(&[1, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels(), &[1, 1]);
        assert_eq!(sub.features()[0], vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn length_mismatch_rejected() {
        let _ = Dataset::new(vec![vec![0.0]], vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_rejected() {
        let _ = Dataset::new(vec![vec![0.0]], vec![5], 2);
    }

    #[test]
    fn empty_dataset_is_valid() {
        let ds = Dataset::default();
        assert!(ds.is_empty());
        assert_eq!(ds.feature_dim(), 0);
    }
}

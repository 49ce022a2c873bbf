//! A minimal dense f32 tensor.
//!
//! Just enough machinery for the paper's baselines (a small CNN, an MLP
//! and logistic regression): shape bookkeeping, element access and a few
//! bulk operations. Layouts are row-major; batch is always the leading
//! dimension.

/// A dense row-major tensor of `f32`.
///
/// # Examples
///
/// ```
/// use rhychee_nn::tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A zero-filled tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty() && shape.iter().all(|&d| d > 0), "invalid shape {shape:?}");
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub(crate) fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length does not match shape {shape:?}"
        );
        Tensor { shape: shape.to_vec(), data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub(crate) fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "cannot reshape {:?} to {shape:?}",
            self.shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Leading (batch) dimension.
    pub fn batch(&self) -> usize {
        self.shape[0]
    }

    /// Elements per batch item.
    pub(crate) fn stride0(&self) -> usize {
        self.data.len() / self.shape[0]
    }

    /// Slice of batch item `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn item(&self, b: usize) -> &[f32] {
        let s = self.stride0();
        &self.data[b * s..(b + 1) * s]
    }

    /// Mutable slice of batch item `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub(crate) fn item_mut(&mut self, b: usize) -> &mut [f32] {
        let s = self.stride0();
        &mut self.data[b * s..(b + 1) * s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[4, 1, 28, 28]);
        assert_eq!(t.len(), 4 * 784);
        assert_eq!(t.batch(), 4);
        assert_eq!(t.stride0(), 784);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_and_item_access() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.item(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.item(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).reshape(&[4]);
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn mismatched_data_rejected() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn bad_reshape_rejected() {
        let _ = Tensor::zeros(&[2, 2]).reshape(&[5]);
    }

    #[test]
    fn item_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.item_mut(1)[0] = 7.0;
        assert_eq!(t.data(), &[0.0, 0.0, 7.0, 0.0]);
    }
}

//! Sequential networks, SGD training, and the paper's three baselines.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU};
use crate::loss::{argmax_rows, cross_entropy};
use crate::tensor::Tensor;

/// A feed-forward stack of layers trained with SGD.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rhychee_nn::network::Network;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let lr = Network::logistic_regression(4, 3, &mut rng);
/// assert_eq!(lr.num_params(), 4 * 3 + 3);
/// ```
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    /// Momentum buffers, one per parameter tensor, allocated lazily.
    velocity: Vec<Vec<f32>>,
    input_shape: Vec<usize>,
}

impl Network {
    /// Builds a network from layers; `input_shape` excludes the batch
    /// dimension (e.g. `[1, 28, 28]` for MNIST images).
    pub fn new(layers: Vec<Box<dyn Layer>>, input_shape: Vec<usize>) -> Self {
        Network { layers, velocity: Vec::new(), input_shape }
    }

    /// The paper's CNN baseline: two convolutional + two fully connected
    /// layers (Li et al. architecture class), sized to 43,484 parameters so
    /// a 20,000-parameter HDC model is 2.2× smaller under CKKS-4 packing —
    /// the exact ratio in Fig. 4/5.
    pub fn cnn_mnist<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 8, 5, rng)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Conv2d::new(8, 16, 5, rng)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(256, 150, rng)),
            Box::new(ReLU::new()),
            Box::new(Dense::new(150, 10, rng)),
        ];
        Network::new(layers, vec![1, 28, 28])
    }

    /// The xMK-CKKS baseline: logistic regression (`in_dim·classes +
    /// classes` parameters; 7,850 for MNIST).
    pub fn logistic_regression<R: Rng + ?Sized>(
        in_dim: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Dense::new(in_dim, classes, rng))];
        Network::new(layers, vec![in_dim])
    }

    /// A generic MLP over flat features with the given hidden widths.
    pub fn mlp<R: Rng + ?Sized>(
        in_dim: usize,
        hidden: &[usize],
        classes: usize,
        rng: &mut R,
    ) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut prev = in_dim;
        for &h in hidden {
            layers.push(Box::new(Dense::new(prev, h, rng)));
            layers.push(Box::new(ReLU::new()));
            prev = h;
        }
        layers.push(Box::new(Dense::new(prev, classes, rng)));
        Network::new(layers, vec![in_dim])
    }

    /// Total trainable parameters (the paper's model-size metric).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Forward pass over a batch.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// One SGD minibatch step; returns the batch loss.
    ///
    /// # Panics
    ///
    /// Panics on label/batch mismatches.
    pub(crate) fn train_batch(
        &mut self,
        input: &Tensor,
        labels: &[usize],
        lr: f32,
        momentum: f32,
    ) -> f32 {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
        let logits = self.forward(input);
        let (loss, mut grad) = cross_entropy(&logits, labels);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        self.sgd_step(lr, momentum);
        loss
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        let mut pairs: Vec<(&mut [f32], &mut [f32])> = Vec::new();
        for layer in &mut self.layers {
            pairs.extend(layer.params_grads_mut());
        }
        if self.velocity.len() != pairs.len() {
            self.velocity = pairs.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
        }
        for ((param, grad), vel) in pairs.into_iter().zip(&mut self.velocity) {
            for ((p, &g), v) in param.iter_mut().zip(grad.iter()).zip(vel.iter_mut()) {
                *v = momentum * *v - lr * g;
                *p += *v;
            }
        }
    }

    /// Trains one epoch with shuffled minibatches; returns the mean loss.
    ///
    /// `features` are flat per-sample vectors reshaped to the network's
    /// input shape.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        features: &[Vec<f32>],
        labels: &[usize],
        batch_size: usize,
        lr: f32,
        momentum: f32,
        rng: &mut R,
    ) -> f32 {
        assert_eq!(features.len(), labels.len(), "sample/label count mismatch");
        let mut order: Vec<usize> = (0..features.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            let batch = self.stack(features, chunk);
            let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            total += self.train_batch(&batch, &batch_labels, lr, momentum);
            batches += 1;
        }
        if batches == 0 {
            0.0
        } else {
            total / batches as f32
        }
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&mut self, features: &[Vec<f32>], labels: &[usize]) -> f64 {
        if features.is_empty() {
            return 1.0;
        }
        let mut correct = 0;
        for (chunk_feats, chunk_labels) in features.chunks(256).zip(labels.chunks(256)) {
            let idx: Vec<usize> = (0..chunk_feats.len()).collect();
            let batch = self.stack(chunk_feats, &idx);
            let logits = self.forward(&batch);
            let preds = argmax_rows(&logits);
            correct += preds.iter().zip(chunk_labels).filter(|(p, l)| p == l).count();
        }
        correct as f64 / features.len() as f64
    }

    /// Flattens all parameters into one vector (for FedAvg exchange).
    pub fn flatten_params(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.params()).flatten().copied().collect()
    }

    /// Clears the SGD momentum state (e.g. between federated clients
    /// sharing one network instance — velocity must not leak from one
    /// client's local run into another's).
    pub fn reset_momentum(&mut self) {
        for v in &mut self.velocity {
            v.fill(0.0);
        }
    }

    /// Loads parameters from a flat vector produced by
    /// [`Network::flatten_params`] on an identically shaped network.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match.
    pub fn load_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "parameter length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            for (param, _) in layer.params_grads_mut() {
                param.copy_from_slice(&flat[offset..offset + param.len()]);
                offset += param.len();
            }
        }
    }

    /// Stacks selected flat samples into a batch tensor shaped for this
    /// network.
    fn stack(&self, features: &[Vec<f32>], idx: &[usize]) -> Tensor {
        let per = self.input_shape.iter().product::<usize>();
        let mut data = Vec::with_capacity(idx.len() * per);
        for &i in idx {
            assert_eq!(features[i].len(), per, "feature length mismatch at sample {i}");
            data.extend_from_slice(&features[i]);
        }
        let mut shape = vec![idx.len()];
        shape.extend_from_slice(&self.input_shape);
        Tensor::from_vec(&shape, data)
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layers.len())
            .field("params", &self.num_params())
            .field("input_shape", &self.input_shape)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Two noisy Gaussian blobs in `dim` dimensions.
    fn blobs(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { 0.8 } else { -0.8 };
            feats.push((0..dim).map(|_| center + rng.gen_range(-0.5..0.5)).collect());
            labels.push(c);
        }
        (feats, labels)
    }

    #[test]
    fn baseline_parameter_counts_match_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        // CNN: sized for the 2.2x communication ratio (ceil(43484/4096) = 11
        // ciphertexts vs ceil(20000/4096) = 5).
        assert_eq!(Network::cnn_mnist(&mut rng).num_params(), 43_484);
        // LR: 7,850 exactly as xMK-CKKS reports.
        assert_eq!(Network::logistic_regression(784, 10, &mut rng).num_params(), 7_850);
        // MLP (the PFMLP baseline, one hidden layer of 69): close to
        // PFMLP's 54,912, whose exact layout the paper does not give.
        let mlp = Network::mlp(784, &[69], 10, &mut rng).num_params();
        assert!((50_000..60_000).contains(&mlp), "MLP params {mlp}");
    }

    #[test]
    fn lr_learns_blobs() {
        let (feats, labels) = blobs(200, 8, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::logistic_regression(8, 2, &mut rng);
        for _ in 0..20 {
            net.train_epoch(&feats, &labels, 16, 0.5, 0.0, &mut rng);
        }
        assert!(net.accuracy(&feats, &labels) > 0.95);
    }

    #[test]
    fn mlp_learns_xor() {
        // XOR is not linearly separable: requires the hidden layer.
        let feats: Vec<Vec<f32>> =
            vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let labels = vec![0usize, 1, 1, 0];
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Network::mlp(2, &[8], 2, &mut rng);
        for _ in 0..500 {
            net.train_epoch(&feats, &labels, 4, 0.5, 0.9, &mut rng);
        }
        assert_eq!(net.accuracy(&feats, &labels), 1.0);
    }

    #[test]
    fn training_reduces_loss() {
        let (feats, labels) = blobs(100, 4, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Network::mlp(4, &[16], 2, &mut rng);
        let first = net.train_epoch(&feats, &labels, 16, 0.1, 0.9, &mut rng);
        let mut last = first;
        for _ in 0..10 {
            last = net.train_epoch(&feats, &labels, 16, 0.1, 0.9, &mut rng);
        }
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn params_flatten_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Network::mlp(6, &[4], 3, &mut rng);
        let flat = net.flatten_params();
        assert_eq!(flat.len(), net.num_params());
        let mut net2 = Network::mlp(6, &[4], 3, &mut rng);
        net2.load_params(&flat);
        assert_eq!(net2.flatten_params(), flat);
        // Identical params → identical predictions.
        let x = Tensor::from_vec(&[1, 6], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        assert_eq!(net.forward(&x).data(), net2.forward(&x).data());
    }

    #[test]
    fn averaging_parameters_is_fedavg_compatible() {
        let (f1, l1) = blobs(100, 4, 8);
        let (f2, l2) = blobs(100, 4, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let mut n1 = Network::logistic_regression(4, 2, &mut rng);
        let flat0 = n1.flatten_params();
        let mut n2 = Network::logistic_regression(4, 2, &mut rng);
        n2.load_params(&flat0); // start from common init, as FL does
        for _ in 0..10 {
            n1.train_epoch(&f1, &l1, 16, 0.3, 0.0, &mut rng);
            n2.train_epoch(&f2, &l2, 16, 0.3, 0.0, &mut rng);
        }
        let avg: Vec<f32> = n1
            .flatten_params()
            .iter()
            .zip(n2.flatten_params().iter())
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        let mut global = Network::logistic_regression(4, 2, &mut rng);
        global.load_params(&avg);
        assert!(global.accuracy(&f1, &l1) > 0.9);
        assert!(global.accuracy(&f2, &l2) > 0.9);
    }

    #[test]
    fn cnn_forward_shape_and_trains_a_step() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::cnn_mnist(&mut rng);
        let feats: Vec<Vec<f32>> = (0..8).map(|i| vec![(i as f32) / 8.0; 784]).collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let loss1 = net.train_epoch(&feats, &labels, 4, 0.05, 0.9, &mut rng);
        assert!(loss1.is_finite() && loss1 > 0.0);
        let acc = net.accuracy(&feats, &labels);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    #[should_panic(expected = "parameter length")]
    fn load_wrong_size_panics() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Network::logistic_regression(4, 2, &mut rng);
        net.load_params(&[0.0; 3]);
    }
}

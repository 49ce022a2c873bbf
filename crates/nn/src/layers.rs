//! Neural-network layers with explicit forward/backward passes.
//!
//! The layer set covers the paper's baselines: `Dense`, `Conv2d`,
//! `MaxPool2d`, `ReLU` and `Flatten`. Each layer caches whatever it needs
//! from the forward pass to compute gradients, and exposes its parameters
//! and parameter gradients to the optimizer through [`Layer::params`] /
//! [`Layer::params_grads_mut`].

use rand::Rng;

use crate::tensor::Tensor;

/// A differentiable network layer.
pub trait Layer: Send {
    /// Forward pass; caches activations needed for the backward pass.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Backward pass: consumes `∂L/∂output`, accumulates parameter
    /// gradients and returns `∂L/∂input`.
    ///
    /// Must be called after [`Layer::forward`] on the matching input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Flat views of the trainable parameter buffers (empty for stateless
    /// layers).
    fn params(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Paired mutable views of (parameters, gradients) for the optimizer.
    fn params_grads_mut(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        Vec::new()
    }

    /// Zeroes accumulated gradients.
    fn zero_grad(&mut self) {}

    /// Total trainable parameter count.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// Fully connected layer: `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim`.
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    input_cache: Tensor,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dimensions must be positive");
        let std = (2.0 / in_dim as f32).sqrt();
        let weights = (0..in_dim * out_dim).map(|_| gaussian(rng) * std).collect();
        Dense {
            in_dim,
            out_dim,
            weights,
            bias: vec![0.0; out_dim],
            grad_weights: vec![0.0; in_dim * out_dim],
            grad_bias: vec![0.0; out_dim],
            input_cache: Tensor::zeros(&[1, 1]),
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.stride0(), self.in_dim, "dense input width mismatch");
        let batch = input.batch();
        let mut out = Tensor::zeros(&[batch, self.out_dim]);
        for b in 0..batch {
            let x = input.item(b);
            let y = out.item_mut(b);
            for (o, yo) in y.iter_mut().enumerate() {
                let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
                *yo = self.bias[o] + dot(row, x);
            }
        }
        self.input_cache = input.clone();
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = grad_out.batch();
        let input = &self.input_cache;
        let mut grad_in = Tensor::zeros(&[batch, self.in_dim]);
        for b in 0..batch {
            let x = input.item(b);
            let g = grad_out.item(b);
            let gi = grad_in.item_mut(b);
            for (o, &go) in g.iter().enumerate() {
                self.grad_bias[o] += go;
                let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
                let grow = &mut self.grad_weights[o * self.in_dim..(o + 1) * self.in_dim];
                for i in 0..self.in_dim {
                    grow[i] += go * x[i];
                    gi[i] += go * row[i];
                }
            }
        }
        grad_in
    }

    fn params(&self) -> Vec<&[f32]> {
        vec![&self.weights, &self.bias]
    }

    fn params_grads_mut(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        vec![(&mut self.weights, &mut self.grad_weights), (&mut self.bias, &mut self.grad_bias)]
    }

    fn zero_grad(&mut self) {
        self.grad_weights.fill(0.0);
        self.grad_bias.fill(0.0);
    }
}

/// 2D convolution (valid padding, stride 1) over `[B, C, H, W]` inputs.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// `[out_c, in_c, k, k]` row-major.
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    input_cache: Tensor,
}

impl Conv2d {
    /// Creates a conv layer with He-initialized `k × k` kernels.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0,
            "conv dimensions must be positive"
        );
        let fan_in = in_channels * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let weights = (0..out_channels * fan_in).map(|_| gaussian(rng) * std).collect();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weights,
            bias: vec![0.0; out_channels],
            grad_weights: vec![0.0; out_channels * fan_in],
            grad_bias: vec![0.0; out_channels],
            input_cache: Tensor::zeros(&[1, 1]),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h - self.kernel + 1, w - self.kernel + 1)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let &[batch, c, h, w] = input.shape() else {
            panic!("Conv2d expects [B, C, H, W], got {:?}", input.shape());
        };
        assert_eq!(c, self.in_channels, "conv input channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let mut out = Tensor::zeros(&[batch, self.out_channels, oh, ow]);
        for b in 0..batch {
            let x = input.item(b);
            let y = out.item_mut(b);
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias[oc];
                        for ic in 0..c {
                            let w_base = ((oc * c + ic) * k) * k;
                            let x_base = ic * h * w;
                            for ky in 0..k {
                                let wrow = &self.weights[w_base + ky * k..w_base + ky * k + k];
                                let xrow = &x
                                    [x_base + (oy + ky) * w + ox..x_base + (oy + ky) * w + ox + k];
                                acc += dot(wrow, xrow);
                            }
                        }
                        y[(oc * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        self.input_cache = input.clone();
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = &self.input_cache;
        let &[batch, c, h, w] = input.shape() else {
            panic!("missing forward cache");
        };
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let mut grad_in = Tensor::zeros(&[batch, c, h, w]);
        for b in 0..batch {
            let x = input.item(b);
            let g = grad_out.item(b);
            let gi = grad_in.item_mut(b);
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = g[(oc * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        self.grad_bias[oc] += go;
                        for ic in 0..c {
                            let w_base = ((oc * c + ic) * k) * k;
                            let x_base = ic * h * w;
                            for ky in 0..k {
                                for kx in 0..k {
                                    let xi = x_base + (oy + ky) * w + (ox + kx);
                                    self.grad_weights[w_base + ky * k + kx] += go * x[xi];
                                    gi[xi] += go * self.weights[w_base + ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn params(&self) -> Vec<&[f32]> {
        vec![&self.weights, &self.bias]
    }

    fn params_grads_mut(&mut self) -> Vec<(&mut [f32], &mut [f32])> {
        vec![(&mut self.weights, &mut self.grad_weights), (&mut self.bias, &mut self.grad_bias)]
    }

    fn zero_grad(&mut self) {
        self.grad_weights.fill(0.0);
        self.grad_bias.fill(0.0);
    }
}

/// 2×2 max pooling with stride 2 over `[B, C, H, W]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaxPool2d {
    /// Argmax indices from the forward pass, one per output element.
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a 2×2/stride-2 pooling layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let &[batch, c, h, w] = input.shape() else {
            panic!("MaxPool2d expects [B, C, H, W], got {:?}", input.shape());
        };
        assert!(h % 2 == 0 && w % 2 == 0, "pooling needs even spatial dims, got {h}x{w}");
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Tensor::zeros(&[batch, c, oh, ow]);
        self.argmax = vec![0; batch * c * oh * ow];
        self.in_shape = input.shape().to_vec();
        let mut oi = 0;
        for b in 0..batch {
            let x = input.item(b);
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = ch * h * w + (2 * oy + dy) * w + (2 * ox + dx);
                                if x[idx] > best {
                                    best = x[idx];
                                    best_i = b * (c * h * w) + idx;
                                }
                            }
                        }
                        out.data_mut()[oi] = best;
                        self.argmax[oi] = best_i;
                        oi += 1;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(&self.in_shape);
        for (g, &idx) in grad_out.data().iter().zip(&self.argmax) {
            grad_in.data_mut()[idx] += g;
        }
        grad_in
    }
}

/// Element-wise rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = input.data().iter().map(|&x| x > 0.0).collect();
        let data = input.data().iter().map(|&x| x.max(0.0)).collect();
        Tensor::from_vec(input.shape(), data)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let data = grad_out
            .data()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape(), data)
    }
}

/// Flattens `[B, ...]` to `[B, prod(...)]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.in_shape = input.shape().to_vec();
        input.clone().reshape(&[input.batch(), input.stride0()])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(&self.in_shape)
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Numerically checks ∂L/∂input for a layer with L = sum(output).
    fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, tol: f32) {
        let out = layer.forward(input);
        let ones = Tensor::from_vec(out.shape(), vec![1.0; out.len()]);
        let grad = layer.backward(&ones);
        let eps = 1e-3;
        for i in (0..input.len()).step_by((input.len() / 16).max(1)) {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f_plus: f32 = layer.forward(&plus).data().iter().sum();
            let f_minus: f32 = layer.forward(&minus).data().iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (grad.data()[i] - numeric).abs() < tol,
                "grad[{i}] analytic {} vs numeric {numeric}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        layer.weights.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        layer.bias.copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let y = layer.forward(&x);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn dense_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(6, 4, &mut rng);
        let input = Tensor::from_vec(&[2, 6], (0..12).map(|i| (i as f32 * 0.37).sin()).collect());
        check_input_gradient(&mut layer, &input, 1e-2);
    }

    #[test]
    fn dense_weight_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(3, 2, &mut rng);
        let input = Tensor::from_vec(&[1, 3], vec![0.5, -1.0, 2.0]);
        let out = layer.forward(&input);
        let ones = Tensor::from_vec(out.shape(), vec![1.0; out.len()]);
        layer.zero_grad();
        let _ = layer.backward(&ones);
        let analytic = layer.grad_weights.clone();
        let eps = 1e-3;
        for (i, &grad) in analytic.iter().enumerate() {
            let orig = layer.weights[i];
            layer.weights[i] = orig + eps;
            let f_plus: f32 = layer.forward(&input).data().iter().sum();
            layer.weights[i] = orig - eps;
            let f_minus: f32 = layer.forward(&input).data().iter().sum();
            layer.weights[i] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!((grad - numeric).abs() < 1e-2, "w[{i}]: {grad} vs {numeric}");
        }
    }

    #[test]
    fn conv_output_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 8, 5, &mut rng);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 8, 24, 24]);
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(2, 3, 3, &mut rng);
        let input =
            Tensor::from_vec(&[1, 2, 6, 6], (0..72).map(|i| ((i as f32) * 0.13).cos()).collect());
        check_input_gradient(&mut conv, &input, 1e-2);
    }

    #[test]
    fn conv_weight_gradient_check() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut conv = Conv2d::new(1, 2, 3, &mut rng);
        let input =
            Tensor::from_vec(&[1, 1, 5, 5], (0..25).map(|i| ((i as f32) * 0.31).sin()).collect());
        let out = conv.forward(&input);
        let ones = Tensor::from_vec(out.shape(), vec![1.0; out.len()]);
        conv.zero_grad();
        let _ = conv.backward(&ones);
        let analytic = conv.grad_weights.clone();
        let eps = 1e-3;
        for (i, &grad) in analytic.iter().enumerate() {
            let orig = conv.weights[i];
            conv.weights[i] = orig + eps;
            let f_plus: f32 = conv.forward(&input).data().iter().sum();
            conv.weights[i] = orig - eps;
            let f_minus: f32 = conv.forward(&input).data().iter().sum();
            conv.weights[i] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!((grad - numeric).abs() < 1e-2, "w[{i}]: analytic {grad} vs numeric {numeric}");
        }
    }

    #[test]
    fn conv_bias_gradient_is_output_count() {
        // dL/db_oc with L = sum(out) equals the number of output pixels.
        let mut rng = StdRng::seed_from_u64(16);
        let mut conv = Conv2d::new(1, 3, 3, &mut rng);
        let input = Tensor::zeros(&[2, 1, 6, 6]);
        let out = conv.forward(&input);
        let ones = Tensor::from_vec(out.shape(), vec![1.0; out.len()]);
        conv.zero_grad();
        let _ = conv.backward(&ones);
        let per_channel = 2.0 * 4.0 * 4.0; // batch * oh * ow
        for &g in &conv.grad_bias {
            assert!((g - per_channel).abs() < 1e-4, "bias grad {g}");
        }
    }

    #[test]
    fn conv_identity_kernel() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 1, 1, &mut rng);
        conv.weights[0] = 1.0;
        conv.bias[0] = 0.0;
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(conv.forward(&x).data(), x.data());
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let mut pool = MaxPool2d::new();
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
        let g = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let gi = pool.backward(&g);
        // Gradient flows only to the max positions.
        assert_eq!(gi.data()[5], 1.0); // value 4.0 at index 5
        assert_eq!(gi.data()[7], 2.0); // value 8.0 at index 7
        assert_eq!(gi.data()[13], 3.0); // value 12.0
        assert_eq!(gi.data()[15], 4.0); // value 16.0
        assert_eq!(gi.data().iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor::from_vec(&[1, 4], vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(relu.backward(&g).data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let mut flat = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = flat.forward(&x);
        assert_eq!(y.shape(), &[2, 48]);
        let gi = flat.backward(&y);
        assert_eq!(gi.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn param_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(Dense::new(784, 10, &mut rng).num_params(), 7850);
        assert_eq!(Conv2d::new(1, 8, 5, &mut rng).num_params(), 208);
        assert_eq!(Conv2d::new(8, 16, 5, &mut rng).num_params(), 3216);
        assert_eq!(MaxPool2d::new().num_params(), 0);
    }
}

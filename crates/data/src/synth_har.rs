//! Synthetic human-activity-recognition (HAR) dataset.
//!
//! Substitutes the UCI "Human Activity Recognition Using Smartphones"
//! dataset (unavailable offline): six activity classes are simulated as
//! parameterized 6-channel inertial windows (accelerometer + gyroscope,
//! 128 samples @ 50 Hz), then summarized by a 561-dimensional statistical
//! feature vector — matching the real dataset's class count and feature
//! dimensionality, which is what the paper's HAR experiments depend on.
//!
//! Feature layout: 17 derived signals × 33 features = 561.
//!
//! * signals: body acc x/y/z, gyro x/y/z, jerk-acc x/y/z, jerk-gyro
//!   x/y/z, plus 5 magnitude/projection signals
//! * features per signal: 14 time-domain + 19 frequency-domain

use rand::Rng;

use crate::gaussian;

/// Samples per window (2.56 s @ 50 Hz, like the UCI dataset).
pub(crate) const WINDOW: usize = 128;

/// Number of activity classes.
pub(crate) const NUM_CLASSES: usize = 6;

/// Output feature dimension (matches UCI HAR).
pub(crate) const FEATURE_DIM: usize = 561;

const CHANNELS: usize = 6;
const FEATURES_PER_SIGNAL: usize = 33;
const NUM_SIGNALS: usize = 17;

/// The six activities, in UCI label order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Level walking, ~1.8 Hz cadence.
    Walking,
    /// Stair ascent: slower cadence, stronger vertical component.
    WalkingUpstairs,
    /// Stair descent: sharper impacts (richer harmonics).
    WalkingDownstairs,
    /// Seated: static, tilted gravity vector.
    Sitting,
    /// Upright static posture.
    Standing,
    /// Horizontal posture: gravity rotated onto another axis.
    Laying,
}

impl Activity {
    /// All activities in label order.
    pub fn all() -> [Activity; NUM_CLASSES] {
        [
            Activity::Walking,
            Activity::WalkingUpstairs,
            Activity::WalkingDownstairs,
            Activity::Sitting,
            Activity::Standing,
            Activity::Laying,
        ]
    }

    /// Numeric class label.
    pub fn label(self) -> usize {
        match self {
            Activity::Walking => 0,
            Activity::WalkingUpstairs => 1,
            Activity::WalkingDownstairs => 2,
            Activity::Sitting => 3,
            Activity::Standing => 4,
            Activity::Laying => 5,
        }
    }

    /// Simulation signature: (cadence Hz, acc amplitude, harmonic weight,
    /// gravity unit vector, noise σ).
    fn signature(self) -> (f32, f32, f32, [f32; 3], f32) {
        match self {
            // Dynamic classes separated mainly by cadence/harmonics; the
            // walking trio overlaps under per-sample frequency jitter,
            // like the real dataset's hardest confusions.
            Activity::Walking => (1.7, 0.9, 0.25, [0.0, 0.0, 1.0], 0.12),
            Activity::WalkingUpstairs => (1.45, 1.05, 0.35, [0.12, 0.0, 0.99], 0.14),
            Activity::WalkingDownstairs => (1.6, 1.15, 0.5, [-0.10, 0.0, 0.99], 0.15),
            // Static classes differ only by posture (gravity direction);
            // sitting vs standing is the classic near-confusable pair.
            Activity::Sitting => (0.0, 0.0, 0.0, [0.22, 0.06, 0.97], 0.06),
            Activity::Standing => (0.0, 0.0, 0.0, [0.05, 0.02, 1.0], 0.055),
            Activity::Laying => (0.0, 0.0, 0.0, [0.1, 0.97, 0.2], 0.06),
        }
    }
}

/// Simulates one 6-channel inertial window for an activity.
///
/// Returns `[channel][sample]` with channels `acc x/y/z, gyro x/y/z`.
pub(crate) fn simulate_window<R: Rng + ?Sized>(activity: Activity, rng: &mut R) -> Vec<Vec<f32>> {
    let (freq, amp, harmonic, gravity, noise) = activity.signature();
    // Per-sample natural variation.
    let freq = freq * (1.0 + rng.gen_range(-0.08..0.08f32));
    let amp = amp * (1.0 + rng.gen_range(-0.2..0.2f32));
    let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
    // Small random re-orientation of the gravity vector (device placement).
    let tilt = rng.gen_range(-0.08..0.08f32);
    let mut out = vec![vec![0.0f32; WINDOW]; CHANNELS];
    let dt = 1.0 / 50.0;
    // Indexing: each sample writes one column across all six channel rows.
    #[allow(clippy::needless_range_loop)]
    for i in 0..WINDOW {
        let t = i as f32 * dt;
        let w = std::f32::consts::TAU * freq * t + phase;
        // Gait model: vertical bounce at cadence + harmonic impact, lateral
        // sway at half cadence.
        let bounce = amp * (w.sin() + harmonic * (2.0 * w).sin());
        let sway = 0.35 * amp * (0.5 * w).sin();
        let forward = 0.5 * amp * (w + 0.7).cos();
        out[0][i] = gravity[0] + tilt + sway + noise * gaussian(rng);
        out[1][i] = gravity[1] + forward + noise * gaussian(rng);
        out[2][i] = gravity[2] + bounce + noise * gaussian(rng);
        // Gyroscope: angular velocity tracks the derivative of posture sway.
        let gyro_amp = 0.6 * amp;
        out[3][i] = gyro_amp * (w + 0.3).cos() + noise * gaussian(rng);
        out[4][i] = 0.5 * gyro_amp * (0.5 * w).cos() + noise * gaussian(rng);
        out[5][i] = 0.3 * gyro_amp * (w + 1.1).sin() + noise * gaussian(rng);
    }
    out
}

/// Extracts the 561-dimensional feature vector from a 6-channel window.
///
/// # Panics
///
/// Panics if the window does not have 6 channels of [`WINDOW`] samples.
pub(crate) fn extract_features(window: &[Vec<f32>]) -> Vec<f32> {
    assert_eq!(window.len(), CHANNELS, "expected 6 channels");
    assert!(window.iter().all(|c| c.len() == WINDOW), "expected {WINDOW}-sample channels");

    // Derived signals: 6 raw + 6 jerk + 4 magnitudes + 1 vertical projection.
    let mut signals: Vec<Vec<f32>> = Vec::with_capacity(NUM_SIGNALS);
    signals.extend(window.iter().cloned());
    for c in window {
        signals.push(jerk(c));
    }
    signals.push(magnitude(&window[0], &window[1], &window[2])); // acc mag
    signals.push(magnitude(&window[3], &window[4], &window[5])); // gyro mag
    let jerk_acc: Vec<Vec<f32>> = (0..3).map(|i| jerk(&window[i])).collect();
    let jerk_gyro: Vec<Vec<f32>> = (3..6).map(|i| jerk(&window[i])).collect();
    signals.push(magnitude(&jerk_acc[0], &jerk_acc[1], &jerk_acc[2]));
    signals.push(magnitude(&jerk_gyro[0], &jerk_gyro[1], &jerk_gyro[2]));
    // Vertical projection: dominant-gravity-axis component (z).
    signals.push(window[2].clone());
    debug_assert_eq!(signals.len(), NUM_SIGNALS);

    let mut features = Vec::with_capacity(FEATURE_DIM);
    for s in &signals {
        features.extend(signal_features(s));
    }
    debug_assert_eq!(features.len(), FEATURE_DIM);
    features
}

/// Generates one labelled HAR feature vector.
pub fn generate_sample<R: Rng + ?Sized>(activity: Activity, rng: &mut R) -> Vec<f32> {
    extract_features(&simulate_window(activity, rng))
}

/// 14 time-domain + 19 frequency-domain features of one signal.
fn signal_features(s: &[f32]) -> Vec<f32> {
    let n = s.len() as f32;
    let mean = s.iter().sum::<f32>() / n;
    let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n;
    let std = var.sqrt();
    let min = s.iter().copied().fold(f32::INFINITY, f32::min);
    let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let energy = s.iter().map(|x| x * x).sum::<f32>() / n;
    let rms = energy.sqrt();
    let mad = s.iter().map(|x| (x - mean).abs()).sum::<f32>() / n;
    let range = max - min;
    let zc = s.windows(2).filter(|w| (w[0] - mean) * (w[1] - mean) < 0.0).count() as f32 / n;
    let ac = |lag: usize| -> f32 {
        if var < 1e-12 {
            return 0.0;
        }
        s.windows(lag + 1).map(|w| (w[0] - mean) * (w[lag] - mean)).sum::<f32>()
            / ((n - lag as f32) * var)
    };
    let skew = if std > 1e-6 {
        s.iter().map(|x| ((x - mean) / std).powi(3)).sum::<f32>() / n
    } else {
        0.0
    };
    let kurt = if std > 1e-6 {
        s.iter().map(|x| ((x - mean) / std).powi(4)).sum::<f32>() / n - 3.0
    } else {
        0.0
    };
    let mut out =
        vec![mean, std, min, max, energy, rms, mad, range, zc, ac(1), ac(2), ac(4), skew, kurt];

    // Frequency domain: 16 log band energies from a 64-point DFT magnitude
    // (grouped into 16 bands of 2 bins over the first 32 bins), dominant
    // frequency bin, spectral centroid, spectral entropy.
    let spec = dft_magnitude(s, 64);
    let half = &spec[..32];
    for band in half.chunks(2) {
        let e: f32 = band.iter().map(|m| m * m).sum();
        out.push((e + 1e-9).ln());
    }
    let total: f32 = half.iter().map(|m| m * m).sum::<f32>() + 1e-9;
    let dominant = half
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i as f32)
        .unwrap_or(0.0);
    let centroid = half.iter().enumerate().map(|(i, m)| i as f32 * m * m).sum::<f32>() / total;
    let entropy = -half
        .iter()
        .map(|m| {
            let p = m * m / total;
            if p > 1e-12 {
                p * p.ln()
            } else {
                0.0
            }
        })
        .sum::<f32>();
    out.push(dominant);
    out.push(centroid);
    out.push(entropy);
    debug_assert_eq!(out.len(), FEATURES_PER_SIGNAL);
    out
}

/// First difference scaled by the sample rate ("jerk" in UCI terms).
fn jerk(s: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(s.len());
    out.push(0.0);
    out.extend(s.windows(2).map(|w| (w[1] - w[0]) * 50.0));
    out
}

/// Euclidean magnitude of a 3-axis signal.
fn magnitude(x: &[f32], y: &[f32], z: &[f32]) -> Vec<f32> {
    x.iter().zip(y).zip(z).map(|((&a, &b), &c)| (a * a + b * b + c * c).sqrt()).collect()
}

/// Magnitudes of the first `bins` DFT coefficients (naive O(n·bins) DFT —
/// windows are only 128 samples).
fn dft_magnitude(s: &[f32], bins: usize) -> Vec<f32> {
    let n = s.len();
    (0..bins)
        .map(|k| {
            let (mut re, mut im) = (0.0f32, 0.0f32);
            for (i, &x) in s.iter().enumerate() {
                let ang = -std::f32::consts::TAU * (k * i) as f32 / n as f32;
                re += x * ang.cos();
                im += x * ang.sin();
            }
            (re * re + im * im).sqrt() / n as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn feature_dimension_matches_uci() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = generate_sample(Activity::Walking, &mut rng);
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn all_activities_generate() {
        let mut rng = StdRng::seed_from_u64(2);
        for a in Activity::all() {
            let f = generate_sample(a, &mut rng);
            assert_eq!(f.len(), 561);
        }
    }

    #[test]
    fn labels_are_consecutive() {
        let labels: Vec<usize> = Activity::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dynamic_activities_have_more_energy_than_static() {
        let mut rng = StdRng::seed_from_u64(3);
        let energy = |a: Activity, rng: &mut StdRng| -> f32 {
            let w = simulate_window(a, rng);
            // Gyro z-channel variance as a motion proxy.
            let c = &w[3];
            let mean = c.iter().sum::<f32>() / c.len() as f32;
            c.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / c.len() as f32
        };
        let walking = energy(Activity::Walking, &mut rng);
        let sitting = energy(Activity::Sitting, &mut rng);
        assert!(walking > 10.0 * sitting, "walking {walking} vs sitting {sitting}");
    }

    #[test]
    fn static_activities_differ_by_gravity_orientation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mean_axis = |a: Activity, axis: usize, rng: &mut StdRng| -> f32 {
            let w = simulate_window(a, rng);
            w[axis].iter().sum::<f32>() / WINDOW as f32
        };
        // Laying rotates gravity onto the y axis; standing keeps it on z.
        let lay_y = mean_axis(Activity::Laying, 1, &mut rng);
        let stand_y = mean_axis(Activity::Standing, 1, &mut rng);
        assert!(lay_y > stand_y + 0.5, "lay_y {lay_y} vs stand_y {stand_y}");
    }

    #[test]
    fn walking_cadence_appears_in_spectrum() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = simulate_window(Activity::Walking, &mut rng);
        let spec = dft_magnitude(&w[2], 32);
        // 1.8 Hz over a 2.56 s window → bin ≈ 4.6; dominant non-DC bin
        // should be in the 3..8 range.
        let dom = spec[2..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i + 2)
            .unwrap();
        assert!((3..=8).contains(&dom), "dominant bin {dom}");
    }

    #[test]
    fn intra_class_distance_smaller_than_inter_class() {
        let mut rng = StdRng::seed_from_u64(6);
        let avg = |a: Activity, rng: &mut StdRng| -> Vec<f32> {
            let mut acc = vec![0.0f32; FEATURE_DIM];
            for _ in 0..5 {
                for (acc_i, f_i) in acc.iter_mut().zip(generate_sample(a, rng)) {
                    *acc_i += f_i / 5.0;
                }
            }
            acc
        };
        let w1 = avg(Activity::Walking, &mut rng);
        let w2 = avg(Activity::Walking, &mut rng);
        let lay = avg(Activity::Laying, &mut rng);
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>().sqrt()
        };
        assert!(dist(&w1, &w2) < dist(&w1, &lay), "class means should separate");
    }

    #[test]
    fn jerk_and_magnitude_shapes() {
        let s = vec![1.0f32, 2.0, 4.0];
        assert_eq!(jerk(&s), vec![0.0, 50.0, 100.0]);
        let m = magnitude(&[3.0], &[4.0], &[0.0]);
        assert_eq!(m, vec![5.0]);
    }
}

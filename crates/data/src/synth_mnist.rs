//! Procedural MNIST-like digit generator.
//!
//! The real MNIST files are unavailable in this offline reproduction, so
//! digits are rendered from per-class stroke skeletons (a seven-segment
//! layout extended with diagonals) with random affine jitter, stroke
//! width, and pixel noise. The result is a 10-class, 784-feature image
//! task with genuine intra-class variability: spatially structured enough
//! for the CNN baseline to exploit locality, and smooth enough for RBF
//! HDC encoding — the properties the paper's MNIST experiments rest on.

use rand::Rng;

use crate::gaussian;

/// Image side length (MNIST-compatible 28×28).
pub(crate) const IMAGE_SIDE: usize = 28;

/// Feature dimension per image (784).
pub const IMAGE_PIXELS: usize = IMAGE_SIDE * IMAGE_SIDE;

/// Number of digit classes.
pub(crate) const NUM_CLASSES: usize = 10;

/// A 2D line segment in normalized glyph coordinates (`[0,1]²`).
#[derive(Debug, Clone, Copy)]
struct Segment {
    x0: f32,
    y0: f32,
    x1: f32,
    y1: f32,
}

const fn seg(x0: f32, y0: f32, x1: f32, y1: f32) -> Segment {
    Segment { x0, y0, x1, y1 }
}

/// Seven-segment-style endpoints (x grows right, y grows down):
/// corners at (0.2/0.8, 0.1/0.5/0.9).
const A: Segment = seg(0.2, 0.1, 0.8, 0.1); // top
const B: Segment = seg(0.8, 0.1, 0.8, 0.5); // top-right
const C: Segment = seg(0.8, 0.5, 0.8, 0.9); // bottom-right
const D: Segment = seg(0.2, 0.9, 0.8, 0.9); // bottom
const E: Segment = seg(0.2, 0.5, 0.2, 0.9); // bottom-left
const F: Segment = seg(0.2, 0.1, 0.2, 0.5); // top-left
const G: Segment = seg(0.2, 0.5, 0.8, 0.5); // middle
/// Diagonal flourishes that break seven-segment symmetry for 1 and 7.
const ONE_SERIF: Segment = seg(0.65, 0.25, 0.8, 0.1);
const SEVEN_DIAG: Segment = seg(0.8, 0.5, 0.5, 0.9);

/// Number of handwriting styles per digit (distinct intra-class modes).
pub(crate) const STYLES_PER_DIGIT: usize = 3;

/// Stroke skeleton for each digit class.
fn skeleton(digit: usize) -> Vec<Segment> {
    match digit {
        0 => vec![A, B, C, D, E, F],
        1 => vec![B, C, ONE_SERIF],
        2 => vec![A, B, G, E, D],
        3 => vec![A, B, G, C, D],
        4 => vec![F, G, B, C],
        5 => vec![A, F, G, C, D],
        6 => vec![A, F, G, E, D, C],
        7 => vec![A, B, SEVEN_DIAG],
        8 => vec![A, B, C, D, E, F, G],
        9 => vec![A, B, C, D, F, G],
        _ => panic!("digit {digit} out of range"),
    }
}

/// Stroke skeleton for one handwriting style of a digit: the base
/// skeleton with a deterministic per-style deformation of every endpoint.
///
/// Multiple distinct modes per class are what make real handwritten
/// digits *not* linearly separable in pixel space; one prototype with
/// affine jitter is. Style 0 is the canonical skeleton.
fn styled_skeleton(digit: usize, style: usize) -> Vec<Segment> {
    let base = skeleton(digit);
    if style == 0 {
        return base;
    }
    base.into_iter()
        .enumerate()
        .map(|(k, s)| {
            let d = |salt: u64| style_offset(digit as u64, style as u64, k as u64, salt);
            seg(s.x0 + d(0), s.y0 + d(1), s.x1 + d(2), s.y1 + d(3))
        })
        .collect()
}

/// Deterministic pseudo-random endpoint offset in [−0.11, 0.11].
fn style_offset(digit: u64, style: u64, segment: u64, salt: u64) -> f32 {
    // splitmix64 over the identifying tuple.
    let mut z = digit
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(style.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(segment.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f32 / u64::MAX as f32 - 0.5) * 0.22
}

/// Rendering jitter parameters.
#[derive(Debug, Clone, Copy)]
pub struct GlyphJitter {
    /// Max absolute translation in normalized units.
    pub translate: f32,
    /// Scale range half-width (scale in `[1−s, 1+s]`).
    pub scale: f32,
    /// Max absolute rotation in radians.
    pub rotate: f32,
    /// Stroke half-width range `[min, max]` in normalized units.
    pub stroke: (f32, f32),
    /// Additive pixel noise standard deviation.
    pub noise: f32,
}

impl Default for GlyphJitter {
    /// Calibrated so the task separates model classes the way real MNIST
    /// does: a linear classifier cannot saturate (rotation/translation
    /// moves class manifolds across pixel space), while kernel methods
    /// (HDC-RBF) and the CNN still reach high accuracy.
    fn default() -> Self {
        GlyphJitter {
            translate: 0.09,
            scale: 0.16,
            rotate: 0.20,
            stroke: (0.045, 0.10),
            noise: 0.08,
        }
    }
}

/// Renders one jittered digit image as 784 floats in `[0, 1]`.
///
/// # Panics
///
/// Panics if `digit >= 10`.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rhychee_data::synth_mnist::{render_digit, GlyphJitter, IMAGE_PIXELS};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let img = render_digit(3, &GlyphJitter::default(), &mut rng);
/// assert_eq!(img.len(), IMAGE_PIXELS);
/// assert!(img.iter().all(|&p| (0.0..=1.0).contains(&p)));
/// ```
pub fn render_digit<R: Rng + ?Sized>(digit: usize, jitter: &GlyphJitter, rng: &mut R) -> Vec<f32> {
    let style = rng.gen_range(0..STYLES_PER_DIGIT);
    let mut segments = styled_skeleton(digit, style);
    // Sloppy handwriting: occasionally drop a stroke entirely (keeping at
    // least two) and draw the rest at partial length. This overlaps the
    // class-conditional pixel distributions the way real handwriting
    // does, which is what keeps a linear pixel classifier from
    // saturating.
    if segments.len() > 2 && rng.gen::<f32>() < 0.10 {
        let victim = rng.gen_range(0..segments.len());
        segments.remove(victim);
    }
    for s in segments.iter_mut() {
        let keep = rng.gen_range(0.85..=1.0f32);
        let from_start = rng.gen::<bool>();
        if from_start {
            s.x1 = s.x0 + (s.x1 - s.x0) * keep;
            s.y1 = s.y0 + (s.y1 - s.y0) * keep;
        } else {
            s.x0 = s.x1 + (s.x0 - s.x1) * keep;
            s.y0 = s.y1 + (s.y0 - s.y1) * keep;
        }
    }
    // Sample an affine transform: rotate + scale about the glyph center,
    // then translate.
    let angle = rng.gen_range(-jitter.rotate..=jitter.rotate);
    let scale = 1.0 + rng.gen_range(-jitter.scale..=jitter.scale);
    let (tx, ty) = (
        rng.gen_range(-jitter.translate..=jitter.translate),
        rng.gen_range(-jitter.translate..=jitter.translate),
    );
    let stroke = rng.gen_range(jitter.stroke.0..=jitter.stroke.1);
    let (sin, cos) = angle.sin_cos();

    let transform = |x: f32, y: f32| -> (f32, f32) {
        let (cx, cy) = (x - 0.5, y - 0.5);
        let rx = scale * (cos * cx - sin * cy) + 0.5 + tx;
        let ry = scale * (sin * cx + cos * cy) + 0.5 + ty;
        (rx, ry)
    };
    let transformed: Vec<Segment> = segments
        .iter()
        .map(|s| {
            let (x0, y0) = transform(s.x0, s.y0);
            let (x1, y1) = transform(s.x1, s.y1);
            seg(x0, y0, x1, y1)
        })
        .collect();

    let mut img = vec![0.0f32; IMAGE_PIXELS];
    for (i, px) in img.iter_mut().enumerate() {
        let x = ((i % IMAGE_SIDE) as f32 + 0.5) / IMAGE_SIDE as f32;
        let y = ((i / IMAGE_SIDE) as f32 + 0.5) / IMAGE_SIDE as f32;
        let d = transformed
            .iter()
            .map(|s| point_segment_distance(x, y, s))
            .fold(f32::INFINITY, f32::min);
        // Soft stroke edge: full intensity inside, smooth falloff outside.
        let ink = 1.0 - smoothstep(stroke * 0.6, stroke * 1.4, d);
        let noisy = ink + jitter.noise * gaussian(rng);
        *px = noisy.clamp(0.0, 1.0);
    }
    img
}

/// Euclidean distance from point to segment.
fn point_segment_distance(px: f32, py: f32, s: &Segment) -> f32 {
    let (dx, dy) = (s.x1 - s.x0, s.y1 - s.y0);
    let len2 = dx * dx + dy * dy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((px - s.x0) * dx + (py - s.y0) * dy) / len2).clamp(0.0, 1.0)
    };
    let (cx, cy) = (s.x0 + t * dx, s.y0 + t * dy);
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

fn smoothstep(lo: f32, hi: f32, x: f32) -> f32 {
    let t = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn all_digits_render() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in 0..NUM_CLASSES {
            let img = render_digit(d, &GlyphJitter::default(), &mut rng);
            assert_eq!(img.len(), 784);
            let ink: f32 = img.iter().sum();
            assert!(ink > 10.0, "digit {d} should have visible strokes, ink={ink}");
            assert!(ink < 500.0, "digit {d} should not flood the image, ink={ink}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_ten_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = render_digit(10, &GlyphJitter::default(), &mut rng);
    }

    #[test]
    fn same_class_images_differ_but_correlate() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = render_digit(8, &GlyphJitter::default(), &mut rng);
        let b = render_digit(8, &GlyphJitter::default(), &mut rng);
        assert_ne!(a, b, "jitter must create intra-class variety");
        // Average correlation over several pairs (single pairs vary with
        // jitter alignment, handwriting style, and stroke dropout).
        let mut acc = 0.0;
        for _ in 0..20 {
            let x = render_digit(8, &GlyphJitter::default(), &mut rng);
            let y = render_digit(8, &GlyphJitter::default(), &mut rng);
            acc += correlation(&x, &y);
        }
        assert!(acc / 20.0 > 0.12, "same class should correlate on average: {}", acc / 20.0);
    }

    #[test]
    fn distinct_classes_correlate_less_than_same_class() {
        let mut rng = StdRng::seed_from_u64(4);
        let jitter = GlyphJitter::default();
        // Average over several renders to avoid jitter flukes.
        let avg_corr = |d1: usize, d2: usize, rng: &mut StdRng| {
            let mut acc = 0.0;
            for _ in 0..10 {
                let a = render_digit(d1, &jitter, rng);
                let b = render_digit(d2, &jitter, rng);
                acc += correlation(&a, &b);
            }
            acc / 10.0
        };
        let same = avg_corr(0, 0, &mut rng);
        let diff = avg_corr(0, 1, &mut rng);
        assert!(same > diff, "same-class corr {same} should beat cross-class {diff}");
    }

    #[test]
    fn one_and_seven_have_distinguishing_strokes() {
        // 1 = {B, C, serif}, 7 = {A, B, diagonal}: same count but distinct
        // segment geometry.
        let ends = |segs: &[Segment]| -> Vec<(i32, i32, i32, i32)> {
            let q = |v: f32| (v * 100.0).round() as i32;
            let mut out: Vec<_> =
                segs.iter().map(|s| (q(s.x0), q(s.y0), q(s.x1), q(s.y1))).collect();
            out.sort_unstable();
            out
        };
        assert_ne!(ends(&skeleton(1)), ends(&skeleton(7)));
    }

    #[test]
    fn rendering_is_deterministic_given_seed() {
        // Style choice and stroke dropout draw from the RNG, so renders
        // are seed-dependent — but bit-identical for equal seeds.
        let jitter = GlyphJitter::default();
        let a = render_digit(4, &jitter, &mut StdRng::seed_from_u64(5));
        let b = render_digit(4, &jitter, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b, "equal seeds must render identically");
        let c = render_digit(4, &jitter, &mut StdRng::seed_from_u64(99));
        assert_ne!(a, c, "different seeds should draw different styles/jitter");
    }

    #[test]
    fn styles_are_distinct_deterministic_modes() {
        let base = styled_skeleton(3, 0);
        for style in 1..STYLES_PER_DIGIT {
            let variant = styled_skeleton(3, style);
            assert_eq!(variant.len(), base.len());
            let moved = variant
                .iter()
                .zip(&base)
                .any(|(v, b)| (v.x0 - b.x0).abs() > 1e-6 || (v.y1 - b.y1).abs() > 1e-6);
            assert!(moved, "style {style} must deform the skeleton");
            // Deterministic: same style twice gives the same skeleton.
            let again = styled_skeleton(3, style);
            for (v, w) in variant.iter().zip(&again) {
                assert_eq!((v.x0, v.y0, v.x1, v.y1), (w.x0, w.y0, w.x1, w.y1));
            }
        }
    }

    fn correlation(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len() as f32;
        let ma = a.iter().sum::<f32>() / n;
        let mb = b.iter().sum::<f32>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            cov += (x - ma) * (y - mb);
            va += (x - ma).powi(2);
            vb += (y - mb).powi(2);
        }
        cov / (va.sqrt() * vb.sqrt() + 1e-9)
    }
}

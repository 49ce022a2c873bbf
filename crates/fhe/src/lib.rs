//! Homomorphic encryption substrates for Rhychee-FL.
//!
//! Implements, from scratch, the three cryptosystems the paper evaluates:
//!
//! * [`ckks`] — RNS-CKKS (SIMD-packed approximate arithmetic over reals),
//!   the scheme Rhychee-FL itself uses for encrypted model aggregation.
//!   It carries only what federated averaging needs — addition,
//!   plaintext-scalar multiplication and rescaling — so there is no key
//!   switching (no ct × ct multiply, relinearization or rotation).
//! * [`lwe`] — TFHE/FHEW-style single-value LWE encryption, the
//!   alternative branch of the design-space study (Table I, Fig. 4).
//! * [`paillier`] — the Paillier cryptosystem, used by the PFMLP baseline
//!   in the Table II comparison.
//!
//! Plus supporting modules: [`params`] (the seven Table III parameter
//! sets), [`sampling`] (discrete Gaussians / ternary secrets),
//! [`bitpack`] (exact-width ciphertext wire formats) and [`error`].
//!
//! Two extensions go beyond the paper's experiments:
//!
//! * [`ckks::threshold`] — k-out-of-n threshold CKKS (distributed key
//!   generation and decryption; n-out-of-n is `k = n`), the architecture
//!   class of the xMK-CKKS baseline;
//! * [`tfhe_boot`] — FHEW/GINX programmable bootstrapping, realizing the
//!   "arbitrary LUT without losing integer precision" capability the
//!   paper's design-space discussion (§IV-B2) attributes to TFHE.
//!
//! # Security note
//!
//! Parameter sets are faithful to the paper and to standard 128-bit
//! security tables, but this code is a research artifact for systems
//! experiments — it has not been audited and makes no constant-time
//! claims. Do not use it to protect real data.
//!
//! # Examples
//!
//! Federated averaging over encrypted vectors (the paper's Eq. 2):
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_fhe::ckks::CkksContext;
//! use rhychee_fhe::params::CkksParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = CkksContext::new(CkksParams::toy())?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let (sk, pk) = ctx.generate_keys(&mut rng);
//!
//! // Three clients encrypt their local models.
//! let models = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]];
//! let mut acc = ctx.encrypt(&pk, &models[0], &mut rng)?;
//! for m in &models[1..] {
//!     let ct = ctx.encrypt(&pk, m, &mut rng)?;
//!     ctx.add_assign(&mut acc, &ct)?;
//! }
//! // The server averages without decrypting.
//! let avg = ctx.mul_scalar(&acc, 1.0 / 3.0);
//! let global = ctx.decrypt(&sk, &avg);
//! assert!((global[0] - 3.0).abs() < 1e-3);
//! assert!((global[1] - 4.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod bitpack;
pub mod ckks;
pub mod error;
pub mod lwe;
pub mod paillier;
pub mod params;
pub mod sampling;
pub mod tfhe_boot;

pub use error::FheError;

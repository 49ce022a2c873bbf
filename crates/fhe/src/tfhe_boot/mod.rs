//! TFHE/FHEW programmable bootstrapping.
//!
//! The paper's design-space discussion (§IV-B2) picks TFHE over CKKS
//! when "high-precision non-linear operations are prioritized": *"TFHE
//! is known to support an arbitrary LUT without losing integer
//! precision."* This module implements that capability — the GINX/CGGI
//! blind-rotation bootstrap over an NTT-friendly accumulator ring, as in
//! FHEW/OpenFHE:
//!
//! 1. **Blind rotation** — an RLWE accumulator initialized with the LUT
//!    test vector is rotated by the encrypted phase using one CMUX (an
//!    RGSW external product) per LWE secret bit;
//! 2. **Sample extraction** — coefficient 0 of the accumulator becomes
//!    an LWE ciphertext of `f(m)` under the accumulator key;
//! 3. **Key switching** — back to the original LWE dimension;
//! 4. **Modulus switching** — back to the original LWE modulus.
//!
//! The LWE layer is the paper-parameterized scheme from
//! [`crate::lwe`]; bootstrapping requires `q = 2N` so ring exponents and
//! LWE phases align (e.g. `q = 2^10`, `N = 512` — exactly the Table III
//! TFHE modulus).
//!
//! # Domain restriction
//!
//! The accumulator ring is negacyclic (`X^N = −1`), so a *single*
//! bootstrap can evaluate an arbitrary function only on messages in
//! `[0, t/2)`; phases in the upper half return the negated LUT value.
//! This is the standard TFHE functional-bootstrap constraint; callers
//! keep one spare message bit (as every TFHE-based system does).
//!
//! # Examples
//!
//! ```no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_fhe::lwe::LweContext;
//! use rhychee_fhe::tfhe_boot::{BootstrapContext, BootstrapParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = BootstrapParams::default();
//! let ctx = LweContext::new(params.lwe)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let sk = ctx.generate_key(&mut rng);
//! let boot = BootstrapContext::generate(&params, &ctx, &sk, &mut rng)?;
//! // Square each message (mod 8), homomorphically and exactly.
//! let lut: Vec<u64> = (0..8).map(|x| (x * x) % 8).collect();
//! let ct = ctx.encrypt(&sk, 3, &mut rng)?;
//! let squared = boot.bootstrap(&ct, &lut)?;
//! assert_eq!(ctx.decrypt(&sk, &squared), 1); // 3² mod 8
//! # Ok(())
//! # }
//! ```

mod bootstrap;
mod rlwe;

pub use bootstrap::{BootstrapContext, BootstrapParams};

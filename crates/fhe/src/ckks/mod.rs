//! RNS-CKKS: approximate homomorphic encryption over the reals.
//!
//! The SIMD-style scheme of Cheon–Kim–Kim–Song, in its residue-number-
//! system variant: a ciphertext packs up to `N/2` real values and supports
//! slot-wise addition, multiplication by a plaintext scalar and rescaling
//! — exactly the operation set federated averaging needs. There is no key
//! switching: no ct × ct multiply, relinearization or rotation.
//!
//! Module layout:
//!
//! * [`modarith`] — scalar arithmetic mod word-sized NTT primes
//! * [`ntt`] — negacyclic number-theoretic transform (+ global table cache)
//! * [`rns`] — RNS polynomials and CRT reconstruction
//! * [`encoder`] — canonical-embedding slot encoder
//! * [`cipher`] — context, keys, ciphertexts, homomorphic ops
//! * [`threshold`] — k-out-of-n distributed keygen and decryption
//! * `seedexp` (private) — stable seeded expansion for compressed symmetric uploads
//! * [`view`] — borrowed zero-copy views for streaming aggregation
//!
//! Every ciphertext is evaluation-domain: encryption produces NTT rows,
//! both wire formats carry them as they are, the additive pipeline
//! (FedAvg) is pointwise on them, and the only transform after
//! encryption is decrypt's one inverse per prime. See `DESIGN.md` §11
//! for the invariant and the transform-count accounting.

pub mod cipher;
pub mod encoder;
pub mod modarith;
pub mod ntt;
pub mod rns;
pub(crate) mod seedexp;
pub mod threshold;
pub mod view;

pub use cipher::{
    CkksCiphertext, CkksContext, CkksEncryptArena, CkksEncryptNoise, CkksPublicKey, CkksSecretKey,
    CkksSymmetricNoise,
};
pub use encoder::CkksEncoder;
pub use view::CtView;

//! Fixed-width unsigned integer arithmetic for Rhychee-FL.
//!
//! This crate is the numeric substrate for the [Paillier] additively
//! homomorphic cryptosystem used as the PFMLP baseline in the Rhychee-FL
//! evaluation (Table II of the paper). It provides:
//!
//! * [`Uint`] — a `64·L`-bit unsigned integer held inline as `L` limbs:
//!   carry-returning add and subtract, checked multiply, Knuth division,
//!   shifts, binary GCD and uniform sampling. Nothing allocates, and a
//!   result that does not fit is refused, never truncated.
//! * [`Montgomery`] — multiplication and a left-to-right exponentiation
//!   ladder modulo a fixed odd modulus, over the limbs the modulus uses.
//! * [`prime`] — Miller–Rabin probabilistic primality testing and random
//!   prime generation.
//!
//! # Examples
//!
//! ```
//! use rhychee_bigint::Uint;
//!
//! let a = Uint::<2>::from(12345);
//! let b = Uint::<2>::from(67890);
//! assert_eq!(a.checked_mul(&b), Some(Uint::from(12345 * 67890)));
//! ```
//!
//! [Paillier]: https://en.wikipedia.org/wiki/Paillier_cryptosystem

mod modular;
pub mod prime;
mod uint;

pub use modular::Montgomery;
pub use prime::{gen_prime, is_probable_prime};
pub use uint::Uint;

#![warn(missing_docs)]

//! Numerical substrate for the `xbar` crossbar-analysis workspace.
//!
//! The normalisation-constant recursions of Stirpe & Pinsky (SIGCOMM '92)
//! manipulate quantities like `Q(N) = G(N)/(N1!·N2!)`, whose magnitude for a
//! `256 × 256` crossbar is on the order of `1/(256!)² ≈ 10^-1014` — far below
//! the smallest positive `f64`. The paper works around this with *dynamic
//! scaling* (its §6). This crate provides that and two stronger tools:
//!
//! * [`ExtFloat`] — an extended-range float (`f64` mantissa + `i64` binary
//!   exponent) with ~15 significant digits and an exponent range of ±2^63,
//!   so the recursions can be run verbatim with no scaling logic at all;
//! * log-domain special functions ([`special`]) for computing the same
//!   quantities as sums of logarithms, used to cross-check both of the
//!   other backends.
//!
//! It also provides compensated summation ([`sum`]), exact and floating
//! combinatorics ([`special`]), finite-difference helpers ([`diff`]) used
//! for the paper's numerically-approximated revenue gradients (§4), and
//! numeric guards ([`guard`]) that classify the characteristic failure
//! modes of fixed-precision backends (underflow, `NaN` ratios, probability
//! drift), so a solve reports a broken backend as a typed error.

pub mod diff;
pub mod extfloat;
pub mod guard;
pub mod special;
pub mod sum;

pub use diff::{central_diff, forward_diff};
pub use extfloat::ExtFloat;
pub use guard::{
    checked_nonneg, checked_prob, finite_or_err, relative_gap, within_rel, GuardError,
};
pub use special::{
    binomial, binomial_exact, binomial_real, falling_factorial, ln_binomial, ln_factorial,
    ln_gamma, ln_permutation, permutation, permutation_exact,
};
pub use sum::{logsumexp, logsumexp_pair, NeumaierSum};

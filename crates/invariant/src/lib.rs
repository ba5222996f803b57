//! Machine-checked contract invariants.
//!
//! The paper's "unwritten contract" is enforced numerically in
//! `uc_core::contract::thresholds`, but the *structural* invariants behind
//! those numbers — L2P/P2L bijectivity in the FTL, token-bucket
//! conservation, checkpoint freeze/thaw exactness, trace monotonicity —
//! were previously implicit. This crate makes them first-class:
//!
//! - [`Contract`] is implemented by any type whose internal consistency
//!   can be audited; [`Contract::check`] walks the full structure and
//!   reports the first [`Violation`] found.
//! - [`enforce`] / [`debug_check`] are the hook points other crates call
//!   on their hot seams. They compile to nothing in ordinary release
//!   builds; debug builds and the `strict-invariants` feature turn them
//!   into hard panics with a structured report.
//! - [`ensure!`] keeps `check` implementations terse.
//!
//! Full-structure audits are O(n); the seam hooks therefore only run the
//! cheap O(1) local checks inline, and the property suites in
//! `tests/invariants.rs` call [`Contract::check`] after every step of
//! randomized op sequences (shrunk to minimal counterexamples by the
//! vendored proptest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A structured report of one broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which contract was audited (e.g. `"uc-ftl/Ftl"`).
    pub contract: &'static str,
    /// Which invariant failed (e.g. `"l2p-p2l-bijective"`).
    pub invariant: &'static str,
    /// Human-readable specifics: offending indices, expected vs actual.
    pub detail: String,
}

impl Violation {
    /// Builds a violation report.
    pub fn new(contract: &'static str, invariant: &'static str, detail: impl Into<String>) -> Self {
        Self {
            contract,
            invariant,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contract violation in {} [{}]: {}",
            self.contract, self.invariant, self.detail
        )
    }
}

impl std::error::Error for Violation {}

/// A type whose structural invariants can be audited on demand.
pub trait Contract {
    /// Stable name used in [`Violation`] reports, `"crate/Type"` style.
    fn contract_name(&self) -> &'static str;

    /// Audits the full structure; `Ok(())` when every invariant holds,
    /// otherwise the first violation found. May be O(n) in the structure
    /// size — call from tests and strict builds, not per-op hot paths.
    fn check(&self) -> Result<(), Violation>;
}

/// Whether contract hooks are enforced in this build: true under
/// `debug_assertions` or with the `strict-invariants` feature.
#[inline(always)]
pub const fn strict_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "strict-invariants"))
}

/// Seam hook: panics with the violation report when hooks are enforced
/// ([`strict_enabled`]); free otherwise. `violation` is only evaluated in
/// enforcing builds.
#[inline(always)]
pub fn enforce(violation: impl FnOnce() -> Result<(), Violation>) {
    if strict_enabled() {
        if let Err(v) = violation() {
            panic!("{v}");
        }
    }
}

/// Audits `subject` and panics on violation when hooks are enforced; a
/// convenience wrapper over [`enforce`] + [`Contract::check`].
#[inline(always)]
pub fn debug_check<C: Contract + ?Sized>(subject: &C) {
    enforce(|| subject.check());
}

/// Early-returns a [`Violation`] when `cond` is false; sugar for `check`
/// implementations.
///
/// ```
/// use uc_invariant::{ensure, Contract, Violation};
///
/// struct Bucket { level: f64, cap: f64 }
///
/// impl Contract for Bucket {
///     fn contract_name(&self) -> &'static str { "doc/Bucket" }
///     fn check(&self) -> Result<(), Violation> {
///         ensure!(self, "level-in-bounds",
///                 self.level >= 0.0 && self.level <= self.cap,
///                 "level {} outside [0, {}]", self.level, self.cap);
///         Ok(())
///     }
/// }
///
/// assert!(Bucket { level: 2.0, cap: 1.0 }.check().is_err());
/// ```
#[macro_export]
macro_rules! ensure {
    ($self:expr, $invariant:expr, $cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::Violation::new(
                $crate::Contract::contract_name($self),
                $invariant,
                format!($($fmt)+),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        used: u32,
        cap: u32,
    }

    impl Contract for Counter {
        fn contract_name(&self) -> &'static str {
            "uc-invariant/Counter"
        }
        fn check(&self) -> Result<(), Violation> {
            ensure!(
                self,
                "used-le-cap",
                self.used <= self.cap,
                "used {} exceeds cap {}",
                self.used,
                self.cap
            );
            Ok(())
        }
    }

    #[test]
    fn passing_contract_checks_clean() {
        assert_eq!(Counter { used: 3, cap: 4 }.check(), Ok(()));
    }

    #[test]
    fn violation_reports_contract_invariant_and_detail() {
        let v = Counter { used: 5, cap: 4 }.check().unwrap_err();
        assert_eq!(v.contract, "uc-invariant/Counter");
        assert_eq!(v.invariant, "used-le-cap");
        assert!(v.detail.contains("used 5 exceeds cap 4"));
        assert!(v
            .to_string()
            .contains("contract violation in uc-invariant/Counter"));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn debug_check_panics_on_violation_in_debug_builds() {
        let err = std::panic::catch_unwind(|| debug_check(&Counter { used: 9, cap: 4 }))
            .expect_err("must panic under debug_assertions");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("used-le-cap"), "{msg}");
    }

    #[test]
    fn strictness_is_consistent_with_build_flags() {
        assert_eq!(
            strict_enabled(),
            cfg!(any(debug_assertions, feature = "strict-invariants"))
        );
    }
}

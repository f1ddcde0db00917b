//! Analytical models and statistical leakage analysis for the H-ORAM
//! reproduction.
//!
//! Section 5.1 of the paper derives the expected I/O costs of the
//! tree-top-cache Path ORAM baseline and of H-ORAM in closed form; this
//! crate implements those derivations so that:
//!
//! * the theoretical figure and table (Fig. 5-1, Table 5-1) can be
//!   regenerated exactly ([`model`], [`gain`], [`period`]);
//! * the simulation results can be cross-checked against the math
//!   (integration test `analytical_agreement`).
//!
//! The [`leakage`] module holds the statistical machinery the security
//! tests use against recorded bus traces: chi-square uniformity tests,
//! the once-per-period checker, and trace-shape equivalence.
//!
//! [`table`] renders aligned ASCII tables.

pub mod autocorr;
pub mod gain;
pub mod latency;
pub mod leakage;
pub mod model;
pub mod period;
pub mod table;

pub use autocorr::{serial_correlation, zero_correlation_band};
pub use gain::{gain_series, GainPoint};
pub use latency::LatencySummary;
pub use leakage::{chi_square_uniform, once_per_period, TraceShape};
pub use model::{AccessCost, OramModel};
pub use period::PeriodOverhead;
pub use table::Table;

//! # skewjoin-datagen
//!
//! Workload generators for the skewjoin workspace.
//!
//! The centerpiece is [`zipf::ZipfWorkload`], a literal implementation of the
//! paper's §V-A generator: an interval array whose lengths are zipf
//! probabilities, one random unique key per interval, and a per-tuple
//! search of uniform randoms into the intervals (narrowed by a guide table,
//! with the paper's exact result, and spread over all cores with output
//! independent of the thread count). Table R and table S are
//! drawn from the *same* interval/key arrays, which is how the paper models
//! "highly skewed" joins where the same keys are hot on both sides.
//!
//! Also provided: uniform and primary/foreign-key generators
//! ([`uniform`]) and a power-law graph edge generator ([`graph`]) matching
//! the paper's motivating workload (vertex degrees of real-world graphs
//! follow power laws, so graph joins see highly skewed keys).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod graph;
pub mod io;
pub mod rng;
pub mod uniform;
pub mod workload;
pub mod zipf;

pub use rng::Rng;
pub use workload::{PaperWorkload, WorkloadSpec};
pub use zipf::ZipfWorkload;

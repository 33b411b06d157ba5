//! Single-assignment sketches: bottom-k, Poisson-τ and k-mins samples.
//!
//! These are the building blocks of Section 3: weighted samples of a single
//! weighted set, defined through a random rank assignment. Multi-assignment
//! summaries ([`crate::summary`]) embed one such sketch per weight
//! assignment.

pub mod bottomk;
pub mod kmins;
pub mod poisson;

pub use bottomk::{BottomKSketch, SketchEntry};
pub use kmins::{kmins_sketches, KMinsSketch};
pub use poisson::{threshold_for_expected_size, PoissonSketch};

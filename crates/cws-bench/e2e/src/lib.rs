//! The end-to-end benchmark of the coordinated-sampling workspace: four
//! fixed-work workloads over the path users run (raw elements or records →
//! `Pipeline` / `EpochedPipeline` → snapshot store and journal →
//! `QueryBatch`), with correctness gates, a traced per-layer breakdown and a
//! comparison of two sets of runs. See `README.md` beside this crate.
//!
//! Layers are measured from outside: spans wrap calls into the public APIs
//! of `cws-engine`, `cws-stream` and `cws_core::codec`, and the traced run
//! feeds the same inputs through each layer's own API (the decomposed twin),
//! which must produce bytes identical to the facade's result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod manifest;
pub mod report;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

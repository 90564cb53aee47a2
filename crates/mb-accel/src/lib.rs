//! Simulator of the Micro Blossom hardware accelerator.
//!
//! The paper implements the dual phase of the blossom algorithm in
//! programmable logic: one vertex PU per decoding-graph vertex and one edge
//! PU per edge, driven by a small broadcast instruction set and answering
//! through a convergecast tree (§3–§7). This crate reproduces that
//! accelerator as a cycle-level simulator:
//!
//! * [`instruction`] — the 32-bit instruction set of Table 3;
//! * [`accelerator`] — the PU array with the compact per-vertex state of
//!   Table 2 in a struct-of-arrays layout, isolated-conflict pre-matching
//!   (Equations 1–3) and round-wise fusion (§6). Every sweep folds over an
//!   explicit **active set** (the software model of hardware PU wake-up),
//!   so per-instruction cost follows the defect neighbourhood, not
//!   `|V| + |E|`;
//! * [`driver`] — the host-side driver implementing
//!   [`mb_blossom::DualModule`] so the unmodified primal module can drive
//!   the hardware, plus the lazy node materialization that makes
//!   pre-matching possible;
//! * [`predecoder`] — the LUT pre-decoder fast path: isolated defect
//!   clusters are resolved from a precomputed local match table (pLUTo-style
//!   lookup parallelism) and only hard shots escalate to the dual phase;
//! * [`resource`] — the resource and clock model reproducing Table 4;
//! * [`timing`] — conversion from cycle/bus counters to wall-clock latency.
//!
//! # Example
//!
//! ```
//! use mb_accel::{AcceleratedDual, AcceleratorConfig, MicroBlossomAccelerator};
//! use mb_blossom::PrimalModule;
//! use mb_graph::codes::CodeCapacityRepetitionCode;
//! use mb_graph::SyndromePattern;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(CodeCapacityRepetitionCode::new(7, 0.01).decoding_graph());
//! let accel = MicroBlossomAccelerator::new(Arc::clone(&graph), AcceleratorConfig {
//!     prematch_enabled: false,
//!     ..AcceleratorConfig::default()
//! });
//! let mut driver = AcceleratedDual::new(accel);
//! driver.load_layer(0, &[2, 3]);
//! let mut primal = PrimalModule::new();
//! let matching = primal.run(&SyndromePattern::new(vec![2, 3]), &mut driver);
//! assert_eq!(matching.pairs, vec![(2, 3)]);
//! ```

pub mod accelerator;
pub mod driver;
pub mod instruction;
pub mod predecoder;
pub mod resource;
pub mod timing;

pub use accelerator::{
    AcceleratorConfig, AcceleratorContext, AcceleratorStats, HwResponse, MicroBlossomAccelerator,
    PrematchPartner,
};
pub use driver::{AcceleratedDual, DualContext, IoStats, PollEvent};
pub use instruction::{HwDirection, HwNodeId, Instruction};
pub use predecoder::PreDecoder;
pub use resource::{estimate_resources, ResourceEstimate};
pub use timing::TimingModel;

//! # fs-bench
//!
//! The benchmark harness reproducing the paper's evaluation (§4): workload
//! generation, deployment measurement, per-figure experiment drivers
//! (Figures 6–8) and the ablations (node budget, signature cost, suspicion
//! aggressiveness) whose commands are in the README's "Regenerating the
//! paper's figures".
//!
//! Regenerate the figures with:
//!
//! ```text
//! cargo run --release -p fs-bench --bin fig6_latency
//! cargo run --release -p fs-bench --bin fig7_throughput_group
//! cargo run --release -p fs-bench --bin fig8_throughput_msgsize
//! ```
//!
//! Set `FS_BENCH_MESSAGES=1000` to use the paper's full per-member message
//! count (the default is smaller so that regeneration stays quick).
//!
//! What the suite costs on the host — capacity, CPU per ordered delivery,
//! per-layer unit costs — is measured by the standalone `benchmark/` package
//! and by nothing here.  The one other binary, `hotpath`, checks two
//! structural properties of the wire path as ratios inside a single run
//! (`on_ack` flat in the pending count; the spliced frame path copies no
//! payload and is no slower than the contiguous one), exits 3 when one
//! breaks, and writes `results/bench-hotpath.json`:
//!
//! ```text
//! cargo run --release -p fs-bench --bin hotpath
//! ```

// `deny` rather than `forbid`: `alloc_count` implements `GlobalAlloc`, which
// is `unsafe` by signature, under a scoped allow with its argument in the
// module docs.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod env;
pub mod experiment;
pub mod measure;
pub mod report;

pub use experiment::{figure6, figure7, figure8, ExperimentConfig, Figure, FigureRow};
pub use measure::{label, measure, RunMetrics};

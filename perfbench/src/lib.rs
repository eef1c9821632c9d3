//! A benchmark for hammervolt: four workloads that each stress different
//! layers of the stack, measured end to end with tracing off and split per
//! layer in a separate traced run. See `README.md` beside this package.

pub mod digest;
pub mod host;
pub mod http;
pub mod layers;
pub mod probes;
pub mod report;
pub mod serve_zipf;
pub mod spans;
pub mod spice_mc;
pub mod stats;
pub mod study;
pub mod zipf;

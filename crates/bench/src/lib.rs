//! `wormhole-bench`: the `bench-regression` gate and the rows behind it.
//!
//! [`measure`] runs the campaign matrix, the distributed executor, the
//! engine walk and the control-plane tables, and renders the
//! artefacts, lint JSON, reports and transcripts the binaries print,
//! through the library call each prints from. It
//! turns their deterministic counters, byte lengths and checksums into
//! the committed `BENCH_campaign.json`, `BENCH_engine.json` and
//! `BENCH_outputs.json` rows, and compares a fresh rendering with those
//! files byte for byte. The `bench-regression` binary is the only
//! writer of those files (with `--write`) and fails on any differing,
//! missing or extra row otherwise. Wall-clock timing of the same layers
//! lives in `perfbench`, paced and with median and spread.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod measure;

//! `wormhole-bench`: the `bench-regression` gate and the measurements
//! behind it.
//!
//! [`measure`] times campaigns, the distributed executor, the substrate
//! cache, the engine walk and the control-plane build, renders them as
//! the committed `BENCH_campaign.json` / `BENCH_engine.json` baselines,
//! and pairs a fresh run with those baselines row by row. The
//! `bench-regression` binary is the only writer of those files (with
//! `--write`) and gates every paired row otherwise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod measure;

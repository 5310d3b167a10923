//! The repository benchmark: four named workloads over the FastMatch
//! engine, each printing its end-to-end metrics (untraced run) or its
//! per-layer metrics (traced run) as one JSON line. See `README.md`.

#![forbid(unsafe_code)]

pub mod common;
pub mod live;
pub mod mem;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod setup;
pub mod summary;
pub mod timed;
pub mod trace;

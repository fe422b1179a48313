//! Instrumentation for the end-to-end and per-layer benchmark: a timing
//! decorator for storage systems, flow capture and replay, and the traced
//! run that ties them to the engine's public parts. The binary in
//! `main.rs` drives the workloads; README.md describes them.

pub mod flows;
pub mod timed;
pub mod traced;

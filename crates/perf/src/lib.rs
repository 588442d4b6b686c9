//! # rstp-perf — open-loop serve benchmark
//!
//! Drives the real [`rstp_serve::run_server`] over the in-process
//! [`rstp_serve::MemHub`] from **one generator thread** that steps every
//! session's transmitter on a fixed schedule (open loop), verifies every
//! output, and reports what a user of the server sees — delivery
//! latency, server CPU per delivered message, the paper's effort — plus,
//! in a separate traced run, what each layer costs.
//!
//! * [`workload`] — the four workloads and the metric catalogue;
//! * [`pace`] — the per-session open-loop schedule (`c1` guard,
//!   re-anchoring);
//! * [`generator`] — the generator thread;
//! * [`hub`] — `MemHub` served with an egress that does not drop;
//! * [`wave`] — one `run_server` call: set-up, serve, verify;
//! * [`bench`] — a run's metrics, attribution and output;
//! * [`layers`] — per-layer replays timed from this crate;
//! * [`reference`] — the fixed job set-up time is rescaled by;
//! * [`shadow`] — the frozen thread server CPU is rescaled by;
//! * [`trace`] — the span buffer;
//! * [`campaign`] — `calibrate` and `compare`;
//! * [`procfs`], [`json`], [`stats`] — plumbing.
//!
//! Traffic never crosses a socket: `serve::udp` is not measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod campaign;
pub mod generator;
pub mod hub;
pub mod json;
pub mod layers;
pub mod pace;
pub mod procfs;
pub mod reference;
pub mod shadow;
pub mod stats;
pub mod trace;
pub mod wave;
pub mod workload;

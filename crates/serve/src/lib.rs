//! # rstp-serve — sharded multi-session RSTP transfer server
//!
//! `rstp-net` paces protocol endpoints on the wall clock, each over its
//! own transport. This crate is the server-side answer to *many*
//! concurrent transfers multiplexed over one socket, while preserving
//! each session's paper semantics — per-process pacing in `[c1, c2]`,
//! `d`-bounded delivery, and the prefix-safety obligation that every
//! receiver output `Y` is exactly its session's input `X`.
//!
//! The architecture (see `docs/SERVE.md` for the full discussion):
//!
//! * [`wheel`] — the shard's session deadlines, one ordered map from
//!   tick to the sessions due at it: one thread paces thousands of
//!   sessions without one sleeper per session.
//! * [`endpoint`] — snapshottable receivers over `rstp-net`'s object-safe
//!   session endpoints, so a shard can own a heterogeneous session table
//!   (α next to β(k) next to γ(k)) behind one trait.
//! * [`metrics`] — per-shard and aggregate counters: active/completed
//!   sessions, per-session effort, latency percentiles, deadline misses.
//! * [`shard`] — the worker: a session table slice, its timer wheel, a
//!   bounded ingress queue, and batched egress. After each wake it reads
//!   ingress for every shard, under the one lock the shards share.
//! * [`hub`] — the loopback transport: a server inbox and per-client
//!   inboxes, drained whole batches at a time.
//! * [`udp`] — the same server loop over one UDP socket, demultiplexing
//!   by each frame's session id.
//! * [`server`] — frame routing (the shards' ingress pass), and the
//!   supervisor: session admission, faults, shard lifecycle.
//! * [`swarm`] — the M-client loopback load harness behind `rstp swarm`,
//!   including the simulator-oracle cross-check.
//!
//! Every frame carries its session id (see [`rstp_net::wire`]); the
//! ingress pass routes each one to the shard that owns its session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod faults;
pub mod hub;
pub mod metrics;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod swarm;
pub mod udp;
pub mod wheel;

pub use endpoint::{receiver_endpoint, restore_receiver_endpoint, SnapshotEndpoint};
pub use faults::{FaultEvent, FaultPlan};
pub use hub::{HubClientTransport, MemHub};
pub use metrics::{ServeReport, SessionStats, ShardReport};
pub use server::{run_server, EgressSink, ServeConfig, ServeTransport, SessionSpec};
pub use snapshot::{SessionSnapshot, StateCodec, SNAPSHOT_VERSION};
pub use swarm::{run_swarm, run_swarm_sessions, SwarmConfig, SwarmReport, SwarmTransport};
pub use udp::UdpServerTransport;
pub use wheel::TimerWheel;

/// The effect of one endpoint step, as the shard and `rstp-net`'s driver
/// see it.
pub use rstp_net::StepEffect;

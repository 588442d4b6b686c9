//! # rstp-net — the real-time wire transport subsystem
//!
//! Everything else in this workspace studies the Real-Time Sequence
//! Transmission Problem inside a discrete-event simulator: abstract ticks,
//! an adversary picking step gaps in `[c1, c2]`, a channel automaton
//! delivering within `d`. This crate lifts the *same* protocol automata
//! onto real I/O and the wall clock:
//!
//! * [`wire`] — a versioned byte codec for protocol packets, with strict
//!   decode errors ([`wire::WireCodec`], [`wire::Frame`]).
//! * [`transport`] — the [`transport::Transport`] trait
//!   (`send`/`poll_recv`/`local_stats`).
//! * [`mem`] — an in-process endpoint pair whose delivery threads enforce
//!   the bounded-delay-with-reorder channel `C(P)` in wall-clock time,
//!   with optional seeded loss/duplication mirroring the simulator's
//!   `Faulty` adversary.
//! * [`udp`] — the same endpoints over `std::net::UdpSocket`.
//! * [`clock`] / [`driver`] — a tick-to-`Instant` mapping and the
//!   real-time driver that paces any number of sessions per thread
//!   inside `[c1, c2]` wall-clock windows. Its [`driver::Pacer`] counts
//!   every deadline miss and timing violation instead of pretending the
//!   OS is ideal, and `rstp-serve`'s shards pace with the same rules.
//! * [`session`] — endpoint construction and whole-transfer
//!   orchestration ([`session::transmitter_endpoint`],
//!   [`session::receiver_endpoint`], [`session::run_transfer_mem`],
//!   [`session::run_transmitter`], [`session::run_receiver`]) keyed by
//!   the simulator's
//!   `ProtocolKind`, so the simulator remains the oracle: the same input
//!   through `rstp-sim` and through a real transport must produce the
//!   same receiver output.
//! * [`histogram`] — log-bucketed per-packet latency accounting.
//!
//! The crate is std-only: no external I/O or async dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chan;
pub mod clock;
pub mod driver;
pub mod error;
pub mod histogram;
pub mod mem;
pub mod session;
pub mod transport;
pub mod udp;
pub mod wire;

pub use chan::{
    ChannelConfig, ChannelSampler, DelayModel, ScriptedVerdicts, Verdict, VerdictSource,
};
pub use clock::TickClock;
pub use driver::{
    run_sessions, Cadence, Driven, DriverConfig, DriverOutcome, DriverReport, Pace, Pacer, Session,
    SessionEndpoint, StepEffect, Wake,
};
pub use error::NetError;
pub use histogram::LatencyHistogram;
pub use mem::MemTransport;
pub use session::{
    codec_for, receiver_endpoint, run_receiver, run_transfer_mem, run_transfer_mem_scripted,
    run_transmitter, transmitter_endpoint, wire_identity, TransferConfig, TransferReport,
};
pub use transport::{Transport, TransportStats};
pub use udp::UdpTransport;
pub use wire::{
    decode_any, peek_session, Frame, FrameBuf, ProtocolId, WireCodec, WireError, FLAG_SESSION,
    FRAME_BUF_CAP, FRAME_LEN, FRAME_LEN_V2, WIRE_VERSION,
};

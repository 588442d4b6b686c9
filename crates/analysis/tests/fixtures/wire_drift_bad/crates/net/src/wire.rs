//! Fixture: the wire frame length whose prose drifted.

/// Encoded length of every frame.
pub const FRAME_LEN_V2: usize = 40;

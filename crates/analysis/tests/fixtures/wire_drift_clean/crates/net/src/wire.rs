//! Fixture: the wire frame length and prose in agreement.

/// Encoded length of every frame.
pub const FRAME_LEN_V2: usize = 40;

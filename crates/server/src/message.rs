//! Wire format for worker→server gradient messages and server→worker
//! step broadcasts.
//!
//! The paper's channels guarantee "only integrity and authentication"
//! (Remark 1) — gradients travel in the clear (which is exactly why the
//! curious server is a privacy threat). Both frame layouts share one
//! shape, two `u32` header words followed by a length-prefixed vector:
//!
//! ```text
//! [a: u32 LE][b: u32 LE][dim: u32 LE][coords: dim × f64 LE][tag: u64 LE]
//! ```
//!
//! where `tag` is an integrity checksum over everything before it —
//! detecting corruption, not providing secrecy. [`GradientMessage`] fills
//! the header with `(worker_id, step)`; [`StepMessage`] (the coordinator's
//! parameter broadcast) fills it with `(step, batch_size)`.
//!
//! # The integrity tag
//!
//! The tag is a word-wise hash with four interleaved lanes, so it runs
//! near memory speed instead of one multiply latency per byte:
//!
//! 1. The tagged bytes are read as little-endian `u64` words; word `i`
//!    goes to lane `i mod 4`. Each lane starts at the FNV-1a offset basis
//!    and absorbs a word as `lane = mix(lane ^ word)`, where `mix` is the
//!    MurmurHash3 64-bit finalizer (xorshift 33, multiply, xorshift 33,
//!    multiply, xorshift 33).
//! 2. The four lanes fold in order into a fresh offset-basis state with
//!    the same xor-then-mix step.
//! 3. The tail bytes that do not fill a word (the header's 12 bytes make
//!    this 4 bytes for every frame) are absorbed one at a time with the
//!    same step.
//!
//! Every step is a bijection of the state: xoring a fixed input is one,
//! and so is each part of `mix` (a right xorshift, and a multiply by an
//! odd constant modulo 2⁶⁴). So a change confined to one word or one tail
//! byte changes its lane (or the folded state), and every later step
//! carries the difference to the tag. Any single-byte corruption anywhere
//! in the frame — header, coordinates or tag — is therefore detected with
//! certainty.
//!
//! `mix` also moves differences downward. A bare `(lane ^ word) * P`
//! step would not: a multiply only carries upward, so a flip of a word's
//! top bit stays exactly the lane's top bit, and a second top-bit flip
//! four words later cancels it. The xorshifts feed high bits into low
//! ones before each multiply, so every input bit reaches every tag bit;
//! the tests check this, and that every two-bit corruption of small
//! frames is rejected.
//!
//! The tag is a wire constant: builds with a different tag function
//! reject each other's frames with [`MessageError::BadChecksum`]. It is
//! not the run digest: [`RunHistory::digest`](crate::RunHistory::digest)
//! is a separate byte-serial FNV-1a over the trajectory.
//!
//! Decode failures are typed ([`MessageError`]) so transports can
//! distinguish a frame that merely arrived short ([`MessageError::ShortRead`])
//! from one whose declared length is implausible
//! ([`MessageError::LengthOverflow`] — a corrupted length prefix would
//! otherwise ask the decoder to allocate gigabytes) from one that parsed
//! but failed integrity ([`MessageError::BadChecksum`]).

use bytes::{BufMut, Bytes, BytesMut};
use dpbyz_tensor::Vector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A gradient submission from one worker for one step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientMessage {
    /// Sender id in `0..n`.
    pub worker_id: u32,
    /// Training step `t`.
    pub step: u32,
    /// The submitted gradient.
    pub gradient: Vector,
}

/// The server→worker broadcast opening a round: the current model
/// parameters plus the step and batch size the worker must compute with.
/// Same framing and integrity discipline as [`GradientMessage`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepMessage {
    /// Training step `t` this broadcast opens.
    pub step: u32,
    /// Batch size the worker must sample this step (the schedule lives on
    /// the server, so growing-batch configs need it on the wire).
    pub batch_size: u32,
    /// The broadcast model parameters.
    pub params: Vector,
}

/// Largest coordinate count a decoder will accept. Caps what a corrupted
/// or hostile length prefix can make `decode_into` allocate (2²⁴ × 8 B =
/// 128 MiB) — far above any model this repo trains, far below a `u32`'s
/// worth of `f64`s.
pub const MAX_WIRE_DIM: usize = 1 << 24;

/// Decode failures, typed by cause so transports can react differently:
/// a short read may mean "wait for more bytes", a length overflow or bad
/// checksum means the frame (and probably the peer) is garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// The frame's byte count does not match what its layout requires —
    /// either below the fixed header+tag minimum, or inconsistent with
    /// the declared coordinate count.
    ShortRead {
        /// Bytes the layout requires.
        needed: usize,
        /// Bytes actually presented.
        got: usize,
    },
    /// The declared coordinate count exceeds [`MAX_WIRE_DIM`] — treated
    /// as corruption before any allocation happens.
    LengthOverflow {
        /// Coordinate count the frame declared.
        declared: usize,
        /// The decoder's cap ([`MAX_WIRE_DIM`]).
        limit: usize,
    },
    /// The integrity tag did not match.
    BadChecksum,
}

impl fmt::Display for MessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageError::ShortRead { needed, got } => {
                write!(
                    f,
                    "truncated frame: layout requires {needed} bytes, got {got}"
                )
            }
            MessageError::LengthOverflow { declared, limit } => {
                write!(
                    f,
                    "frame declares {declared} coordinates, above the {limit} cap"
                )
            }
            MessageError::BadChecksum => write!(f, "integrity check failed"),
        }
    }
}

impl std::error::Error for MessageError {}

const HEADER: usize = 4 + 4 + 4;
const TAG: usize = 8;

/// Start value of every lane and of the fold: the FNV-1a offset basis.
const TAG_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const TAG_LANES: usize = 4;

/// The MurmurHash3 64-bit finalizer: a bijection in which every input
/// bit reaches every output bit.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// One tag step: xor the input in, then mix.
fn tag_step(state: u64, input: u64) -> u64 {
    mix(state ^ input)
}

/// The frame integrity tag: 4-lane word-wise xor-then-mix (see the
/// module docs).
fn frame_tag(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let (groups, rest) = words.as_chunks::<TAG_LANES>();
    let mut lanes = [TAG_BASIS; TAG_LANES];
    for group in groups {
        for (lane, word) in lanes.iter_mut().zip(group) {
            *lane = tag_step(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(rest) {
        *lane = tag_step(*lane, u64::from_le_bytes(*word));
    }
    let folded = lanes.into_iter().fold(TAG_BASIS, tag_step);
    tail.iter()
        .fold(folded, |state, &byte| tag_step(state, u64::from(byte)))
}

/// Reads `N` bytes at offset `at` of a peer-supplied frame, reporting a
/// typed [`MessageError::ShortRead`] instead of panicking when the frame
/// is too short — the only slice-access pattern hostile-input decoders
/// (here and in the TCP transport) are allowed to use.
///
/// # Errors
///
/// [`MessageError::ShortRead`] when `frame` ends before `at + N`.
pub fn read_array<const N: usize>(frame: &[u8], at: usize) -> Result<[u8; N], MessageError> {
    frame
        .get(at..at.saturating_add(N))
        .and_then(|bytes| <[u8; N]>::try_from(bytes).ok())
        .ok_or(MessageError::ShortRead {
            needed: at.saturating_add(N),
            got: frame.len(),
        })
}

/// Encodes the shared `[a][b][dim][coords][tag]` layout into a cleared,
/// recycled buffer.
fn encode_vec_frame(a: u32, b: u32, v: &Vector, buf: &mut BytesMut) {
    // lint:begin(zero-copy)
    buf.clear();
    buf.put_u32_le(a);
    buf.put_u32_le(b);
    buf.put_u32_le(v.dim() as u32);
    // Size the whole frame at once, so a fresh buffer's capacity is
    // exactly one frame rather than doubled by a later append.
    let body_len = HEADER + v.dim() * 8;
    buf.resize(body_len + TAG, 0);
    let (body, tag) = buf.split_at_mut(body_len);
    let (coords, _) = body[HEADER..].as_chunks_mut::<8>();
    for (bytes, &x) in coords.iter_mut().zip(v.iter()) {
        *bytes = x.to_le_bytes();
    }
    tag.copy_from_slice(&frame_tag(body).to_le_bytes());
    // lint:end(zero-copy)
}

/// Decodes the shared layout into a caller-provided vector, returning the
/// two header words. See [`GradientMessage::decode_into`] for semantics.
fn decode_vec_frame(frame: &[u8], v: &mut Vector) -> Result<(u32, u32), MessageError> {
    // lint:begin(zero-copy)
    if frame.len() < HEADER + TAG {
        return Err(MessageError::ShortRead {
            needed: HEADER + TAG,
            got: frame.len(),
        });
    }
    let body_len = frame.len() - TAG;
    let a = u32::from_le_bytes(read_array(frame, 0)?);
    let b = u32::from_le_bytes(read_array(frame, 4)?);
    let dim = u32::from_le_bytes(read_array(frame, 8)?) as usize;
    if dim > MAX_WIRE_DIM {
        return Err(MessageError::LengthOverflow {
            declared: dim,
            limit: MAX_WIRE_DIM,
        });
    }
    let needed = HEADER + dim * 8 + TAG;
    if frame.len() != needed {
        return Err(MessageError::ShortRead {
            needed,
            got: frame.len(),
        });
    }
    // The length check above makes both ranges exact: `body` is the
    // header plus `dim` whole coordinates.
    let body = frame.get(..body_len).unwrap_or_default();
    let (coords, _) = body.get(HEADER..).unwrap_or_default().as_chunks::<8>();
    v.resize(dim, 0.0);
    for (coord, bytes) in v.as_mut_slice().iter_mut().zip(coords) {
        *coord = f64::from_le_bytes(*bytes);
    }
    let tag = u64::from_le_bytes(read_array(frame, body_len)?);
    if tag != frame_tag(body) {
        return Err(MessageError::BadChecksum);
    }
    // lint:end(zero-copy)
    Ok((a, b))
}

impl GradientMessage {
    /// Creates a message.
    pub fn new(worker_id: u32, step: u32, gradient: Vector) -> Self {
        GradientMessage {
            worker_id,
            step,
            gradient,
        }
    }

    /// Encodes to a framed byte buffer with integrity tag.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER + self.gradient.dim() * 8 + TAG);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes into a caller-provided buffer — the frame-arena hot path
    /// the threaded engine drives every round. The buffer is cleared
    /// first and its allocation is reused, so at steady state (same
    /// dimension every round) encoding performs no heap allocation.
    /// Byte-identical to [`GradientMessage::encode`], tag included.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        Self::encode_frame(self.worker_id, self.step, &self.gradient, buf);
    }

    /// Encodes a frame without owning the gradient — the by-reference
    /// counterpart of [`GradientMessage::encode_into`], byte-identical to
    /// it. The TCP transport drives this so a live [`Vector`] can be
    /// framed without moving it out of its arena.
    pub fn encode_frame(worker_id: u32, step: u32, gradient: &Vector, buf: &mut BytesMut) {
        encode_vec_frame(worker_id, step, gradient, buf);
    }

    /// Decodes and verifies a framed byte buffer.
    ///
    /// # Errors
    ///
    /// [`MessageError::ShortRead`] on length-inconsistent frames,
    /// [`MessageError::LengthOverflow`] if the declared coordinate count
    /// exceeds [`MAX_WIRE_DIM`], [`MessageError::BadChecksum`] if the
    /// integrity tag mismatches.
    pub fn decode(frame: Bytes) -> Result<Self, MessageError> {
        let mut gradient = Vector::default();
        let (worker_id, step) = Self::decode_into(&frame, &mut gradient)?;
        Ok(GradientMessage {
            worker_id,
            step,
            gradient,
        })
    }

    /// Decodes and verifies a frame into a caller-provided gradient
    /// buffer, returning the `(worker_id, step)` header fields — the
    /// allocation-free counterpart of [`GradientMessage::decode`]: the
    /// live [`Vector`] is resized in place (a no-op at steady state) and
    /// refilled in one pass. Checksum semantics are identical: the
    /// integrity tag covers header and payload, and a
    /// mismatch rejects the frame after parsing, exactly as `decode`
    /// does. On error the gradient buffer is left in an unspecified but
    /// valid state.
    ///
    /// # Errors
    ///
    /// As [`GradientMessage::decode`].
    pub fn decode_into(frame: &[u8], gradient: &mut Vector) -> Result<(u32, u32), MessageError> {
        decode_vec_frame(frame, gradient)
    }
}

impl StepMessage {
    /// Creates a broadcast message.
    pub fn new(step: u32, batch_size: u32, params: Vector) -> Self {
        StepMessage {
            step,
            batch_size,
            params,
        }
    }

    /// Encodes to a framed byte buffer with integrity tag.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER + self.params.dim() * 8 + TAG);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes into a caller-provided (cleared, recycled) buffer —
    /// byte-identical to [`StepMessage::encode`].
    pub fn encode_into(&self, buf: &mut BytesMut) {
        Self::encode_frame(self.step, self.batch_size, &self.params, buf);
    }

    /// Encodes a frame without owning the parameters — what the
    /// coordinator drives every round, framing the server's live
    /// parameter vector straight out of the trainer core.
    pub fn encode_frame(step: u32, batch_size: u32, params: &Vector, buf: &mut BytesMut) {
        encode_vec_frame(step, batch_size, params, buf);
    }

    /// Decodes and verifies a framed byte buffer.
    ///
    /// # Errors
    ///
    /// As [`GradientMessage::decode`].
    pub fn decode(frame: Bytes) -> Result<Self, MessageError> {
        let mut params = Vector::default();
        let (step, batch_size) = Self::decode_into(&frame, &mut params)?;
        Ok(StepMessage {
            step,
            batch_size,
            params,
        })
    }

    /// Decodes and verifies a frame into a caller-provided parameter
    /// buffer, returning `(step, batch_size)` — the worker-loop hot path,
    /// allocation-free at steady state like
    /// [`GradientMessage::decode_into`].
    ///
    /// # Errors
    ///
    /// As [`GradientMessage::decode`].
    pub fn decode_into(frame: &[u8], params: &mut Vector) -> Result<(u32, u32), MessageError> {
        decode_vec_frame(frame, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let msg = GradientMessage::new(3, 42, Vector::from(vec![1.5, -2.25, 0.0]));
        let decoded = GradientMessage::decode(msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn zero_copy_roundtrip_reuses_buffers() {
        // The frame-arena path: encode into a recycled BytesMut, decode
        // into a dirty live Vector — byte- and bit-identical to the
        // allocating encode/decode pair.
        let msg = GradientMessage::new(3, 42, Vector::from(vec![1.5, -2.25, 0.0]));
        let mut frame = BytesMut::with_capacity(4);
        frame.put_u32_le(0xDEAD_BEEF); // dirty: encode_into must clear
        msg.encode_into(&mut frame);
        assert_eq!(&frame[..], &msg.encode()[..]);
        let mut gradient = Vector::from(vec![9.0; 7]); // dirty, wrong dim
        let (id, step) = GradientMessage::decode_into(&frame, &mut gradient).unwrap();
        assert_eq!((id, step), (3, 42));
        assert_eq!(gradient, msg.gradient);
        // Second round through the SAME buffers.
        let msg2 = GradientMessage::new(4, 43, Vector::from(vec![0.25, 7.0, -1.0]));
        msg2.encode_into(&mut frame);
        let (id, step) = GradientMessage::decode_into(&frame, &mut gradient).unwrap();
        assert_eq!((id, step), (4, 43));
        assert_eq!(gradient, msg2.gradient);
    }

    #[test]
    fn encode_frame_matches_encode_into() {
        let msg = GradientMessage::new(9, 17, Vector::from(vec![0.5, -0.5]));
        let mut owned = BytesMut::default();
        msg.encode_into(&mut owned);
        let mut borrowed = BytesMut::default();
        GradientMessage::encode_frame(9, 17, &msg.gradient, &mut borrowed);
        assert_eq!(&owned[..], &borrowed[..]);
    }

    #[test]
    fn empty_gradient_roundtrip() {
        let msg = GradientMessage::new(0, 0, Vector::zeros(0));
        assert_eq!(GradientMessage::decode(msg.encode()).unwrap(), msg);
        let mut gradient = Vector::from(vec![1.0]);
        let mut frame = BytesMut::default();
        msg.encode_into(&mut frame);
        assert_eq!(
            GradientMessage::decode_into(&frame, &mut gradient).unwrap(),
            (0, 0)
        );
        assert!(gradient.is_empty());
    }

    #[test]
    fn step_message_roundtrip() {
        let msg = StepMessage::new(7, 25, Vector::from(vec![1.0, -0.125, 3.5]));
        assert_eq!(StepMessage::decode(msg.encode()).unwrap(), msg);
        // Buffer-reusing path agrees bit for bit.
        let mut frame = BytesMut::default();
        msg.encode_into(&mut frame);
        let mut params = Vector::from(vec![0.0; 9]); // dirty, wrong dim
        let (step, batch) = StepMessage::decode_into(&frame, &mut params).unwrap();
        assert_eq!((step, batch), (7, 25));
        assert_eq!(params, msg.params);
        // By-reference framing is byte-identical.
        let mut by_ref = BytesMut::default();
        StepMessage::encode_frame(7, 25, &msg.params, &mut by_ref);
        assert_eq!(&frame[..], &by_ref[..]);
    }

    #[test]
    fn step_and_gradient_frames_share_layout() {
        // Same header words + same vector ⇒ same bytes: the two codecs
        // are one layout, so transport-level buffer handling is shared.
        let v = Vector::from(vec![2.0, 4.0]);
        let g = GradientMessage::new(1, 2, v.clone()).encode();
        let s = StepMessage::new(1, 2, v).encode();
        assert_eq!(&g[..], &s[..]);
    }

    #[test]
    fn detects_truncation() {
        let msg = GradientMessage::new(1, 2, Vector::from(vec![1.0, 2.0]));
        let mut frame = BytesMut::default();
        msg.encode_into(&mut frame);
        let mut gradient = Vector::default();
        // Cut inside the payload: the declared dim no longer fits.
        assert_eq!(
            GradientMessage::decode_into(&frame[..frame.len() - 9], &mut gradient),
            Err(MessageError::ShortRead {
                needed: frame.len(),
                got: frame.len() - 9
            })
        );
        // Below even the fixed header+tag minimum.
        assert_eq!(
            GradientMessage::decode_into(b"xy", &mut gradient),
            Err(MessageError::ShortRead { needed: 20, got: 2 })
        );
        // The legacy Bytes-consuming path reports the same.
        assert_eq!(
            GradientMessage::decode(Bytes::from_static(b"xy")),
            Err(MessageError::ShortRead { needed: 20, got: 2 })
        );
    }

    #[test]
    fn detects_length_overflow() {
        // A corrupted length prefix claiming a huge payload must be
        // rejected before the decoder allocates for it. Build a frame
        // whose dim field is absurd but whose total length passes the
        // header+tag minimum.
        let msg = GradientMessage::new(1, 2, Vector::from(vec![1.0, 2.0]));
        let mut frame = BytesMut::default();
        msg.encode_into(&mut frame);
        frame[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut gradient = Vector::default();
        assert_eq!(
            GradientMessage::decode_into(&frame, &mut gradient),
            Err(MessageError::LengthOverflow {
                declared: u32::MAX as usize,
                limit: MAX_WIRE_DIM,
            })
        );
        // The dirty target buffer was never resized toward the bogus dim.
        assert!(gradient.is_empty());
    }

    #[test]
    fn corrupting_each_field_is_detected() {
        // Walk every field of an encoded frame, corrupt it in isolation,
        // and check the typed rejection. Length-affecting corruption
        // surfaces as ShortRead/LengthOverflow (caught before the
        // checksum); value corruption surfaces as BadChecksum.
        let msg = GradientMessage::new(5, 11, Vector::from(vec![1.0, -2.0]));
        let clean = msg.encode();
        let mut gradient = Vector::default();
        let mut corrupt = |at: usize, bit: u8| {
            let mut frame = clean.to_vec();
            frame[at] ^= bit;
            GradientMessage::decode_into(&frame, &mut gradient).unwrap_err()
        };
        // worker_id (byte 0), step (byte 4): values covered by the tag.
        assert_eq!(corrupt(0, 0x01), MessageError::BadChecksum);
        assert_eq!(corrupt(4, 0x01), MessageError::BadChecksum);
        // dim low byte (byte 8): the frame length no longer matches.
        assert_eq!(
            corrupt(8, 0x01),
            MessageError::ShortRead {
                needed: HEADER + 3 * 8 + TAG,
                got: clean.len(),
            }
        );
        // dim high byte (byte 11): the declared count blows past the cap.
        assert_eq!(
            corrupt(11, 0x80),
            MessageError::LengthOverflow {
                declared: 2 + (0x80 << 24),
                limit: MAX_WIRE_DIM,
            }
        );
        // A payload coordinate (first byte of coord 1).
        assert_eq!(corrupt(HEADER + 8, 0xFF), MessageError::BadChecksum);
        // The tag itself (last byte).
        assert_eq!(corrupt(clean.len() - 1, 0x01), MessageError::BadChecksum);
    }

    #[test]
    fn detects_corruption() {
        let msg = GradientMessage::new(1, 2, Vector::from(vec![1.0, 2.0]));
        let mut frame = BytesMut::default();
        msg.encode_into(&mut frame);
        frame[HEADER + 3] ^= 0xFF; // flip a payload bit in the arena
        let mut gradient = Vector::default();
        assert_eq!(
            GradientMessage::decode_into(&frame, &mut gradient),
            Err(MessageError::BadChecksum)
        );
    }

    #[test]
    fn detects_header_tampering() {
        // Flipping the worker id must break the tag: authentication-ish
        // integrity over the whole frame.
        let msg = GradientMessage::new(1, 2, Vector::from(vec![1.0]));
        let mut frame = BytesMut::default();
        msg.encode_into(&mut frame);
        frame[0] ^= 0x01;
        let mut gradient = Vector::default();
        assert_eq!(
            GradientMessage::decode_into(&frame, &mut gradient),
            Err(MessageError::BadChecksum)
        );
    }

    #[test]
    fn every_single_bit_flip_is_rejected_with_its_typed_error() {
        // Dims 0..=9 put the coordinates at every lane phase and leave
        // every count of trailing lane words, so each path of the tag
        // (full 4-word groups, leftover words, tail bytes) sees a flip.
        for dim in 0..=9u32 {
            let coords = (0..dim).map(|j| f64::from(j) - 2.5).collect::<Vec<_>>();
            let clean = GradientMessage::new(7, 3, Vector::from(coords)).encode();
            let mut gradient = Vector::default();
            for at in 0..clean.len() {
                for bit in 0..8 {
                    let mut frame = clean.to_vec();
                    frame[at] ^= 1 << bit;
                    let expected = if (8..HEADER).contains(&at) {
                        let declared = (dim ^ (1 << (bit + 8 * (at - 8)))) as usize;
                        if declared > MAX_WIRE_DIM {
                            MessageError::LengthOverflow {
                                declared,
                                limit: MAX_WIRE_DIM,
                            }
                        } else {
                            MessageError::ShortRead {
                                needed: HEADER + declared * 8 + TAG,
                                got: clean.len(),
                            }
                        }
                    } else {
                        MessageError::BadChecksum
                    };
                    assert_eq!(
                        GradientMessage::decode_into(&frame, &mut gradient),
                        Err(expected),
                        "dim {dim}, byte {at}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_two_bit_flip_is_rejected_with_its_typed_error() {
        // Two flips can cancel in a weak tag (a bare multiply keeps a
        // word's top-bit flip in the lane's top bit, where a second one
        // undoes it). Every pair over dims 0..=9 must still be rejected.
        for dim in 0..=9u32 {
            let coords = (0..dim).map(|j| f64::from(j) - 2.5).collect::<Vec<_>>();
            let mut frame = GradientMessage::new(7, 3, Vector::from(coords))
                .encode()
                .to_vec();
            let len = frame.len();
            let mut gradient = Vector::default();
            for first in 0..len * 8 {
                for second in first + 1..len * 8 {
                    let mut dim_mask = 0u32;
                    for bit in [first, second] {
                        frame[bit / 8] ^= 1 << (bit % 8);
                        if (64..96).contains(&bit) {
                            dim_mask |= 1 << (bit - 64);
                        }
                    }
                    let declared = (dim ^ dim_mask) as usize;
                    let expected = if dim_mask == 0 {
                        MessageError::BadChecksum
                    } else if declared > MAX_WIRE_DIM {
                        MessageError::LengthOverflow {
                            declared,
                            limit: MAX_WIRE_DIM,
                        }
                    } else {
                        MessageError::ShortRead {
                            needed: HEADER + declared * 8 + TAG,
                            got: len,
                        }
                    };
                    assert_eq!(
                        GradientMessage::decode_into(&frame, &mut gradient),
                        Err(expected),
                        "dim {dim}, bits {first} and {second}"
                    );
                    for bit in [first, second] {
                        frame[bit / 8] ^= 1 << (bit % 8);
                    }
                }
            }
        }
    }

    #[test]
    fn top_bit_flips_of_word_pairs_are_rejected() {
        // The top bit of each tagged 8-byte word and of each tail byte,
        // on a frame long enough for many 4-word lane groups, paired with
        // every other one and with the tag's own top bit (the frame's
        // last byte).
        let coords = (0..64)
            .map(|j| f64::from(j) * 0.75 - 3.0)
            .collect::<Vec<_>>();
        let mut frame = GradientMessage::new(2, 5, Vector::from(coords))
            .encode()
            .to_vec();
        let body_len = frame.len() - TAG;
        let tops: Vec<usize> = (7..body_len)
            .step_by(8)
            .chain(body_len / 8 * 8..body_len)
            .chain([frame.len() - 1])
            .collect();
        let mut gradient = Vector::default();
        for (i, &a) in tops.iter().enumerate() {
            for &b in &tops[i + 1..] {
                frame[a] ^= 0x80;
                frame[b] ^= 0x80;
                assert_eq!(
                    GradientMessage::decode_into(&frame, &mut gradient),
                    Err(MessageError::BadChecksum),
                    "bytes {a} and {b}"
                );
                frame[a] ^= 0x80;
                frame[b] ^= 0x80;
            }
        }
    }

    #[test]
    fn every_tagged_bit_reaches_both_halves_of_the_tag() {
        // No tag bit may depend only on low input bits: each single-bit
        // change to the tagged bytes moves at least 8 bits of each
        // 32-bit half of the tag.
        let coords = (0..9).map(|j| f64::from(j) - 2.5).collect::<Vec<_>>();
        let frame = GradientMessage::new(7, 3, Vector::from(coords)).encode();
        let mut body = frame[..frame.len() - TAG].to_vec();
        let clean = frame_tag(&body);
        for bit in 0..body.len() * 8 {
            body[bit / 8] ^= 1 << (bit % 8);
            let diff = frame_tag(&body) ^ clean;
            body[bit / 8] ^= 1 << (bit % 8);
            let (low, high) = ((diff as u32).count_ones(), (diff >> 32).count_ones());
            assert!(low >= 8 && high >= 8, "bit {bit}: {diff:#018x}");
        }
    }

    /// The tag as the module docs specify it, one word at a time.
    fn reference_tag(bytes: &[u8]) -> u64 {
        fn step(state: u64, input: u64) -> u64 {
            let mut x = state ^ input;
            x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
            x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        }
        let mut lanes = [0xcbf2_9ce4_8422_2325; TAG_LANES];
        let words = bytes.len() / 8;
        for i in 0..words {
            let word = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
            lanes[i % TAG_LANES] = step(lanes[i % TAG_LANES], word);
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        for lane in lanes {
            h = step(h, lane);
        }
        for &b in &bytes[words * 8..] {
            h = step(h, u64::from(b));
        }
        h
    }

    #[test]
    fn tag_is_a_pinned_wire_constant() {
        // Dim 4: a 44-byte body is one full 4-word group, one leftover
        // word and 4 tail bytes. A change to this value is a wire-format
        // break: peers built before it reject every frame.
        let frame = GradientMessage::new(1, 2, Vector::from(vec![1.0, -2.0, 0.5, 0.0])).encode();
        let body_len = frame.len() - TAG;
        let tag = u64::from_le_bytes(frame[body_len..].try_into().unwrap());
        for len in 0..=frame.len() {
            assert_eq!(frame_tag(&frame[..len]), reference_tag(&frame[..len]));
        }
        assert_eq!(tag, KNOWN_TAG);
    }

    #[test]
    fn read_array_reports_short_frames() {
        assert_eq!(read_array::<4>(&[1, 0, 0, 0], 0), Ok([1, 0, 0, 0]));
        assert_eq!(
            read_array::<8>(&[0; 4], 0),
            Err(MessageError::ShortRead { needed: 8, got: 4 })
        );
        // Offset near usize::MAX must not overflow into a bogus range.
        assert_eq!(
            read_array::<4>(&[0; 8], usize::MAX),
            Err(MessageError::ShortRead {
                needed: usize::MAX,
                got: 8
            })
        );
    }

    #[test]
    fn error_display() {
        assert!(MessageError::ShortRead { needed: 20, got: 2 }
            .to_string()
            .contains("truncated"));
        assert!(MessageError::LengthOverflow {
            declared: 1 << 30,
            limit: MAX_WIRE_DIM
        }
        .to_string()
        .contains("cap"));
        assert!(MessageError::BadChecksum.to_string().contains("integrity"));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            id in 0u32..1000,
            step in 0u32..100_000,
            coords in proptest::collection::vec(-1e9..1e9f64, 0..64),
        ) {
            let msg = GradientMessage::new(id, step, Vector::from(coords));
            prop_assert_eq!(GradientMessage::decode(msg.encode()).unwrap(), msg.clone());
            // The buffer-reusing path agrees bit for bit.
            let mut frame = BytesMut::default();
            msg.encode_into(&mut frame);
            let mut gradient = Vector::from(vec![5.0; 3]);
            let header = GradientMessage::decode_into(&frame, &mut gradient).unwrap();
            prop_assert_eq!(header, (msg.worker_id, msg.step));
            prop_assert_eq!(gradient, msg.gradient);
        }

        #[test]
        fn prop_bulk_codec_roundtrips_bit_for_bit(
            bits in proptest::collection::vec(0u64..u64::MAX, 0..64),
            picks in proptest::collection::vec(0usize..2 * SPECIALS.len(), 64),
        ) {
            // Half the coordinates are special values (signed zeros, NaN
            // payloads, infinities, subnormals); the rest are any bits.
            let coords: Vec<f64> = bits
                .iter()
                .zip(&picks)
                .map(|(&b, &p)| SPECIALS.get(p).copied().unwrap_or(f64::from_bits(b)))
                .collect();
            let msg = GradientMessage::new(1, 9, Vector::from(coords.clone()));
            let frame = msg.encode();
            // Same bytes as the per-coordinate layout.
            let mut reference = BytesMut::default();
            reference.put_u32_le(1);
            reference.put_u32_le(9);
            reference.put_u32_le(coords.len() as u32);
            for &x in &coords {
                reference.put_f64_le(x);
            }
            prop_assert_eq!(&frame[..frame.len() - TAG], &reference[..]);
            let mut gradient = Vector::from(vec![3.0; 5]);
            GradientMessage::decode_into(&frame, &mut gradient).unwrap();
            let decoded: Vec<u64> = gradient.iter().map(|x| x.to_bits()).collect();
            let sent: Vec<u64> = coords.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(decoded, sent);
        }
    }

    /// Coordinates whose bit patterns an arithmetic path could alter.
    const SPECIALS: [f64; 8] = [
        -0.0,
        0.0,
        f64::NAN,
        f64::from_bits(0xfff8_dead_beef_0001), // negative quiet NaN, payload
        f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1), // smallest subnormal
    ];

    /// The tag of the frame in `tag_is_a_pinned_wire_constant`.
    const KNOWN_TAG: u64 = 0xb669_42fc_d180_9334;
}

//! Incremental reassembly of length-prefixed frames from an arbitrarily
//! fragmented byte stream — the one frame splitter every reader of the
//! [`crate::wire`] framing uses: [`crate::serve`] on a request wire, the
//! [`crate::Client`] on its reply bytes, and a hub's connection readers.
//!
//! A TCP read returns whatever bytes happen to be in the socket buffer: a
//! frame can arrive whole, split mid-payload, or split inside its 4-byte
//! length prefix. [`FrameBuffer`] accumulates those fragments and yields
//! exactly the frame payloads the peer encoded, in order — the torn-frame
//! property test below proves reassembly is fragmentation-invariant.
//!
//! The buffer also enforces the transport's frame-size limit *early*: as soon
//! as the front frame's length prefix is complete, a declaration above the
//! limit fails with [`TransportError::FrameTooLarge`] — before any of the
//! oversized payload is buffered, so a hostile peer cannot balloon server
//! memory by declaring a huge frame.

use crate::TransportError;

/// Reassembles length-prefixed frames (`u32` little-endian length, then that
/// many payload bytes — the [`crate::wire`] framing) from stream fragments of
/// any size.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    max_frame_bytes: u64,
}

impl FrameBuffer {
    /// An empty buffer enforcing `max_frame_bytes` on every declared frame
    /// length.
    pub fn new(max_frame_bytes: u64) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            max_frame_bytes,
        }
    }

    /// Declared payload length of the front frame, once its prefix is
    /// complete. Fails if the declaration exceeds the limit.
    fn front_len(&self) -> Result<Option<usize>, TransportError> {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let declared = u64::from(u32::from_le_bytes(*prefix));
        if declared > self.max_frame_bytes {
            return Err(TransportError::FrameTooLarge {
                declared,
                max: self.max_frame_bytes,
            });
        }
        // The declaration was a u32, so it fits a usize.
        Ok(Some(declared as usize))
    }

    /// Append raw stream bytes. Fails as soon as the front frame's length
    /// prefix declares more than the limit.
    pub fn extend(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.buf.extend_from_slice(bytes);
        self.front_len().map(|_| ())
    }

    /// Pop the next complete frame payload, or `Ok(None)` if the stream has
    /// not delivered one yet. (The limit is re-checked here: a later frame
    /// becomes the front frame only after its predecessor pops.)
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let Some(len) = self.front_len()? else {
            return Ok(None);
        };
        if self.buf.len() - 4 < len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet popped (partial frames included).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_request, encode_request};
    use crate::Request;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn whole_frames_pop_in_order() {
        let mut fb = FrameBuffer::new(1 << 20);
        let wire = [frame(b"alpha"), frame(b""), frame(b"beta")].concat();
        fb.extend(&wire).unwrap();
        assert_eq!(fb.pop().unwrap().unwrap(), b"alpha");
        assert_eq!(fb.pop().unwrap().unwrap(), b"");
        assert_eq!(fb.pop().unwrap().unwrap(), b"beta");
        assert_eq!(fb.pop().unwrap(), None);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn oversize_declaration_is_rejected_from_the_prefix_alone() {
        let mut fb = FrameBuffer::new(8);
        // Feed only the 4 prefix bytes of a 1 MiB declaration: the reject
        // fires before any payload byte exists to buffer.
        let declared = (1u32 << 20).to_le_bytes();
        assert_eq!(
            fb.extend(&declared),
            Err(TransportError::FrameTooLarge {
                declared: 1 << 20,
                max: 8
            })
        );
        // A frame at the limit is fine; one past it is not.
        let mut fb = FrameBuffer::new(5);
        fb.extend(&frame(b"12345")).unwrap();
        assert_eq!(fb.pop().unwrap().unwrap(), b"12345");
        assert!(fb.extend(&frame(b"123456")).is_err());
    }

    #[test]
    fn oversize_second_frame_is_caught_when_it_reaches_the_front() {
        let mut fb = FrameBuffer::new(8);
        // Both frames arrive in one read: the front frame is legal, the one
        // behind it oversized. extend() only sees the front prefix, so the
        // reject fires at the pop that would expose the second frame.
        let wire = [frame(b"ok"), frame(b"123456789")].concat();
        fb.extend(&wire).unwrap();
        assert_eq!(fb.pop().unwrap().unwrap(), b"ok");
        assert!(fb.pop().is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Torn-frame robustness: any fragmentation of the byte stream —
        /// 1-byte reads, splits inside the length prefix, several frames per
        /// read — reassembles to exactly the payload sequence that whole-frame
        /// delivery yields, and real protocol frames decode identically.
        #[test]
        fn prop_reassembly_is_fragmentation_invariant(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wire = Vec::new();
            let mut expected = Vec::new();
            for i in 0..rng.gen_range(1usize..8) {
                // A mix of raw payloads and genuine protocol request frames.
                let payload = if i % 2 == 0 {
                    let body: Vec<u8> = (0..rng.gen_range(0usize..64))
                        .map(|_| rng.gen_range(0u8..=255))
                        .collect();
                    let full = encode_request(rng.gen_range(0u64..u64::MAX),
                                              &Request::RestoreIndex(body));
                    full[4..].to_vec()
                } else {
                    (0..rng.gen_range(0usize..32))
                        .map(|_| rng.gen_range(0u8..=255))
                        .collect()
                };
                wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                wire.extend_from_slice(&payload);
                expected.push(payload);
            }

            // Reference: the whole wire in one read.
            let mut whole = FrameBuffer::new(u32::MAX as u64);
            whole.extend(&wire).unwrap();
            let mut reference = Vec::new();
            while let Some(p) = whole.pop().unwrap() {
                reference.push(p);
            }
            prop_assert_eq!(&reference, &expected);

            // Fragmented delivery: random cut points, 1-byte reads included.
            let mut torn = FrameBuffer::new(u32::MAX as u64);
            let mut reassembled = Vec::new();
            let mut offset = 0;
            while offset < wire.len() {
                let take = rng.gen_range(1usize..=(wire.len() - offset).min(7));
                torn.extend(&wire[offset..offset + take]).unwrap();
                while let Some(p) = torn.pop().unwrap() {
                    reassembled.push(p);
                }
                offset += take;
            }
            prop_assert_eq!(&reassembled, &expected);
            prop_assert_eq!(torn.pending_bytes(), 0);

            // Protocol frames survive reassembly byte-identically: every
            // even-indexed payload decodes to the request that was encoded.
            for payload in reassembled.iter().step_by(2) {
                prop_assert!(decode_request(payload).is_ok());
            }
        }
    }
}

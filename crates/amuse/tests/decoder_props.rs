//! Property tests for the incremental frame decoder — the one framer
//! both ends of a connection use (the client reactor and the worker
//! server).
//!
//! Both pump [`FrameDecoder::read_from`] with whatever byte counts the
//! kernel happens to deliver — a frame may arrive in one read or in
//! dozens of fragments split at arbitrary offsets, including inside the
//! header, and one read may carry the end of one frame and the start of
//! the next. The decoder's contract: any split of a stream of valid
//! frames reassembles to exactly the frames the one-shot
//! `wire::read_frame` would have produced, in order; a frame delivered
//! whole costs one `read`; and hostile input errors out with bounded
//! allocation and no panic — the same guarantees `wire_robustness.rs`
//! pins for `read_frame` itself.

use jc_amuse::reactor::FrameDecoder;
use jc_amuse::wire::{self, WireError};
use jc_amuse::worker::Request;
use proptest::prelude::*;
use std::io::Read;

/// A non-blocking socket whose bytes arrive in fragments: `data` cut at
/// `cuts` (arbitrary, possibly repeated or out-of-range offsets), with
/// `WouldBlock` once at every cut and for good at the end — never EOF.
/// `reads` counts the calls to `read`.
struct Fragments<'a> {
    data: &'a [u8],
    pos: usize,
    edges: Vec<usize>,
    next: usize,
    reads: usize,
}

impl<'a> Fragments<'a> {
    fn new(data: &'a [u8], cuts: &[usize]) -> Fragments<'a> {
        let mut edges: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
        edges.sort_unstable();
        Fragments { data, pos: 0, edges, next: 0, reads: 0 }
    }

    /// Pump `d` across the fragment edges until its frame completes
    /// (`Some(len)`) or the bytes run out (`None`).
    fn pump(&mut self, d: &mut FrameDecoder) -> Result<Option<usize>, WireError> {
        loop {
            match d.read_from(self)? {
                None if self.pos < self.data.len() => {}
                done => return Ok(done),
            }
        }
    }
}

impl Read for Fragments<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let stop = self.edges.get(self.next).copied().unwrap_or(self.data.len());
        if self.pos >= stop {
            self.next = (self.next + 1).min(self.edges.len());
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(stop - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// An arbitrary valid request frame, seq-stamped.
fn valid_frame(n: usize, seq: u16, op: u8) -> Vec<u8> {
    let mut buf = Vec::new();
    match op {
        0 => wire::encode_simple_request(wire::op::PING, &mut buf),
        1 => wire::kick_frame(&vec![[1.5, -2.5, 3.25]; n]).encode(&mut buf),
        2 => {
            wire::encode_request(&Request::SetMasses((0..n).map(|i| i as f64).collect()), &mut buf)
        }
        3 => wire::encode_compute_kick(
            &vec![[1.0, 2.0, 3.0]; n],
            &vec![[0.5; 3]; n],
            &vec![1.0 / n.max(1) as f64; n],
            &mut buf,
        ),
        // the v4 frames: a priming and a mass-free field, a step answer
        4 | 5 => {
            let (pos, mass) = (vec![[0.5, -1.0, 2.0]; n], vec![1.0 / n.max(1) as f64; n]);
            let masses = (op == 4).then_some((&mass[..], &mass[..]));
            wire::compute_field_frame(&pos, &pos, masses, (0, n), (0, n)).encode(&mut buf)
        }
        _ => wire::stepped_frame(&vec![[0.25, 1.0, -3.0]; n], 1e3).encode(&mut buf),
    }
    wire::set_seq(&mut buf, seq);
    buf
}

/// Decode `frame` delivered in fragments cut at `cuts`, returning the
/// decoded frame.
fn decode_in_fragments(frame: &[u8], cuts: &[usize]) -> Vec<u8> {
    let mut d = FrameDecoder::new();
    let mut reader = Fragments::new(frame, cuts);
    let len = reader.pump(&mut d).expect("valid frame must decode");
    assert_eq!(len, Some(frame.len()), "all bytes delivered but frame not complete");
    assert_eq!(reader.pos, frame.len());
    assert!(d.is_complete());
    d.frame().to_vec()
}

proptest! {
    /// Any split of a valid frame decodes to exactly the bytes that
    /// went in — fragment boundaries are invisible.
    #[test]
    fn any_split_decodes_identically_to_one_shot(
        n in 0usize..40,
        seq in any::<u16>(),
        op in 0u8..7,
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let frame = valid_frame(n, seq, op);
        let reassembled = decode_in_fragments(&frame, &cuts);
        prop_assert_eq!(&reassembled, &frame);
        prop_assert_eq!(wire::frame_seq(&reassembled), seq);
        // and the one-shot decode agrees on the payload's meaning
        let a = format!("{:?}", wire::decode_request(&frame));
        let b = format!("{:?}", wire::decode_request(&reassembled));
        prop_assert_eq!(a, b);
        let a = format!("{:?}", wire::decode_response(&frame));
        let b = format!("{:?}", wire::decode_response(&reassembled));
        prop_assert_eq!(a, b);
    }

    /// Concatenated frames split anywhere come out of one decoder in
    /// order, bit for bit: bytes read past a frame's end carry over as
    /// the start of the next, and nothing is left once the last frame
    /// is taken.
    #[test]
    fn a_split_batch_decodes_in_order(
        frames in proptest::collection::vec((0usize..24, 0u8..7), 1..5),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let frames: Vec<Vec<u8>> = frames
            .iter()
            .enumerate()
            .map(|(i, &(n, op))| valid_frame(n, i as u16 + 1, op))
            .collect();
        let batch = frames.concat();
        let mut d = FrameDecoder::new();
        let mut reader = Fragments::new(&batch, &cuts);
        for f in &frames {
            prop_assert_eq!(reader.pump(&mut d), Ok(Some(f.len())));
            prop_assert_eq!(d.frame(), &f[..]);
            d.advance();
        }
        prop_assert_eq!((reader.pos, d.filled()), (batch.len(), 0));
    }

    /// A frame that arrives whole (here: any frame up to one
    /// `READ_CHUNK`) completes in exactly one `read` — no separate
    /// header read.
    #[test]
    fn a_whole_frame_completes_in_one_read(
        n in 0usize..40,
        op in 0u8..7,
    ) {
        let frame = valid_frame(n, 5, op);
        let mut d = FrameDecoder::new();
        let mut reader = Fragments::new(&frame, &[]);
        prop_assert_eq!(d.read_from(&mut reader), Ok(Some(frame.len())));
        prop_assert_eq!(reader.reads, 1);
    }

    /// Hostile bytes — random garbage arriving at random split points — must
    /// produce a typed error or keep waiting for more input, never
    /// panic, and never allocate beyond the header until a validated
    /// length is known.
    #[test]
    fn hostile_bytes_error_cleanly_without_overallocation(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut d = FrameDecoder::new();
        match Fragments::new(&junk, &cuts).pump(&mut d) {
            // a complete (tiny) frame, or still waiting for more input
            Ok(_) => {}
            // header rejection happens before any payload allocation
            Err(e) => prop_assert!(matches!(
                e,
                WireError::BadMagic(_) | WireError::BadVersion(_) | WireError::Oversized(_)
            ), "unexpected error {e:?}"),
        }
        // garbage that merely *claims* a huge length must not have
        // provoked a huge buffer: growth is bounded by bytes received
        // plus one read chunk
        prop_assert!(
            d.buffered_capacity() <= junk.len() + wire::READ_CHUNK + wire::HEADER_LEN,
            "decoder allocated {} bytes for {} bytes of junk",
            d.buffered_capacity(),
            junk.len()
        );
    }

    /// A truncated valid frame (cut anywhere before the end) — a kick,
    /// or a v4 positions-only step answer — is never reported complete.
    #[test]
    fn truncated_frames_stay_incomplete(
        n in 1usize..24,
        cut_frac in 0.0f64..1.0,
        op in prop_oneof![Just(1u8), Just(6u8)],
    ) {
        let frame = valid_frame(n, 3, op);
        let cut = ((frame.len() - 1) as f64 * cut_frac) as usize;
        let mut d = FrameDecoder::new();
        let pumped = Fragments::new(&frame[..cut], &[cut / 2]).pump(&mut d);
        prop_assert!(
            pumped == Ok(None),
            "incomplete frame reported complete at {cut}/{}: {pumped:?}",
            frame.len()
        );
        prop_assert_eq!(d.filled(), cut);
        prop_assert!(!d.is_complete());
    }
}

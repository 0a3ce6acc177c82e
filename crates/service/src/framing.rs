//! Incremental newline-delimited frame assembly for the nonblocking server.
//!
//! The blocking server used [`BufRead::lines`] to carve the byte stream
//! into frames; the event loop instead receives arbitrary read chunks and
//! feeds them to a [`FrameDecoder`], which yields exactly the frames
//! `lines` would have yielded — newline-stripped, with a trailing `\r`
//! removed. Each chunk is split at its newlines as it is pushed, so every
//! byte is scanned once however many TCP segments a frame spans; only the
//! unterminated tail waits in the decoder between reads.
//!
//! A frame is bounded in bytes. Once the unterminated tail passes
//! [`MAX_FRAME_BYTES`], the decoder drops it, queues a [`Frame::TooLarge`]
//! in its place and discards input up to the next newline, so a client
//! that never sends a newline cannot grow the server's memory.
//!
//! [`BufRead::lines`]: std::io::BufRead::lines

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

/// The longest frame a [`FrameDecoder`] buffers, in bytes before its
/// newline: 4 MiB.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// One frame of the input, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, without its `\n` and a `\r` before it.
    Line(Bytes),
    /// A line longer than [`MAX_FRAME_BYTES`]; its bytes were dropped.
    TooLarge,
}

/// Reassembles newline-delimited frames from arbitrary byte chunks.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Frames complete but not yet taken.
    ready: VecDeque<Frame>,
    /// The unterminated frame so far.
    partial: BytesMut,
    /// The frame in progress passed [`MAX_FRAME_BYTES`]: its remaining
    /// bytes are dropped up to the next newline.
    skipping: bool,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append a chunk read from the socket.
    pub fn push(&mut self, chunk: &[u8]) {
        let mut rest = chunk;
        while let Some(at) = rest.iter().position(|b| *b == b'\n') {
            let line = &rest[..at];
            rest = &rest[at + 1..];
            let frame = if self.partial.is_empty() && !self.skipping && at <= MAX_FRAME_BYTES {
                // The whole frame is in this chunk: copy it out once.
                without_cr(line)
            } else {
                self.extend(line);
                if std::mem::take(&mut self.skipping) {
                    continue;
                }
                without_cr(&std::mem::take(&mut self.partial))
            };
            self.ready.push_back(Frame::Line(frame));
        }
        self.extend(rest);
    }

    /// Add bytes to the frame in progress, or drop them once it is too
    /// large.
    fn extend(&mut self, bytes: &[u8]) {
        if self.skipping {
            return;
        }
        if self.partial.len() + bytes.len() > MAX_FRAME_BYTES {
            self.partial = BytesMut::new();
            self.skipping = true;
            self.ready.push_back(Frame::TooLarge);
        } else {
            self.partial.extend_from_slice(bytes);
        }
    }

    /// Pop the next frame, or the marker of a frame that was too large,
    /// if one is complete.
    pub fn pop(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Pop the next complete frame, if one is buffered, skipping frames
    /// that were too large ([`pop`](FrameDecoder::pop) reports those).
    ///
    /// A frame is everything up to (and excluding) the next `\n`; a `\r`
    /// immediately before the `\n` is stripped too, matching what
    /// [`BufRead::lines`](std::io::BufRead::lines) hands the blocking
    /// reader.
    pub fn next_frame(&mut self) -> Option<Bytes> {
        while let Some(frame) = self.pop() {
            if let Frame::Line(line) = frame {
                return Some(line);
            }
        }
        None
    }

    /// Take the trailing unterminated frame at end-of-stream, if any, once
    /// every complete frame has been popped.
    ///
    /// `BufRead::lines` yields a final line even when the peer closes the
    /// connection without a trailing newline; the event loop calls this on
    /// EOF so the two servers accept the same byte streams. A tail that
    /// was too large has already been reported.
    pub fn finish(&mut self) -> Option<Bytes> {
        if std::mem::take(&mut self.skipping) || self.partial.is_empty() {
            return None;
        }
        let tail = std::mem::take(&mut self.partial);
        Some(without_cr(&tail))
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn buffered_len(&self) -> usize {
        let ready: usize = self
            .ready
            .iter()
            .map(|frame| match frame {
                Frame::Line(line) => line.len(),
                Frame::TooLarge => 0,
            })
            .sum();
        ready + self.partial.len()
    }
}

/// A frame's bytes with one trailing `\r` removed.
fn without_cr(line: &[u8]) -> Bytes {
    Bytes::copy_from_slice(line.strip_suffix(b"\r").unwrap_or(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_frames_split_across_pushes() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"hel");
        assert!(decoder.next_frame().is_none());
        decoder.push(b"lo\nwor");
        assert_eq!(&*decoder.next_frame().unwrap(), b"hello");
        assert!(decoder.next_frame().is_none());
        decoder.push(b"ld\n");
        assert_eq!(&*decoder.next_frame().unwrap(), b"world");
        assert!(decoder.next_frame().is_none());
        assert_eq!(decoder.buffered_len(), 0);
    }

    #[test]
    fn strips_carriage_returns_like_bufread_lines() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"a\r\nb\n\r\n");
        assert_eq!(&*decoder.next_frame().unwrap(), b"a");
        assert_eq!(&*decoder.next_frame().unwrap(), b"b");
        assert_eq!(&*decoder.next_frame().unwrap(), b"");
        assert!(decoder.next_frame().is_none());
    }

    #[test]
    fn finish_returns_the_unterminated_tail() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"done\ntail");
        assert_eq!(&*decoder.next_frame().unwrap(), b"done");
        assert!(decoder.next_frame().is_none());
        assert_eq!(&*decoder.finish().unwrap(), b"tail");
        assert!(decoder.finish().is_none());
    }

    #[test]
    fn empty_lines_are_frames() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"\n\nx\n");
        assert_eq!(&*decoder.next_frame().unwrap(), b"");
        assert_eq!(&*decoder.next_frame().unwrap(), b"");
        assert_eq!(&*decoder.next_frame().unwrap(), b"x");
    }

    #[test]
    fn a_frame_past_the_limit_is_dropped_up_to_its_newline() {
        let mut decoder = FrameDecoder::new();
        // 5 MiB with no newline, in 64 KiB reads: the buffer never holds
        // more than the limit, and the oversized frame is reported once.
        let chunk = vec![b'x'; 64 << 10];
        for _ in 0..80 {
            decoder.push(&chunk);
            assert!(decoder.buffered_len() <= MAX_FRAME_BYTES);
        }
        assert_eq!(decoder.pop(), Some(Frame::TooLarge));
        assert_eq!(decoder.pop(), None);
        assert_eq!(decoder.buffered_len(), 0);
        // Input resumes after the oversized frame's newline.
        decoder.push(b"xxx\r\nnext\n");
        assert_eq!(&*decoder.next_frame().unwrap(), b"next");
        assert!(decoder.finish().is_none());
    }

    #[test]
    fn a_frame_at_the_limit_is_kept() {
        let mut decoder = FrameDecoder::new();
        let frame = vec![b'y'; MAX_FRAME_BYTES];
        decoder.push(&frame[..1000]);
        decoder.push(&frame[1000..]);
        decoder.push(b"\n");
        assert_eq!(decoder.next_frame().unwrap().len(), MAX_FRAME_BYTES);
        // One byte more, even in a single push, is too large. It keeps its
        // place between its neighbours; `next_frame` skips it.
        decoder.push(b"before\n");
        decoder.push(&frame);
        decoder.push(b"y\nafter\n");
        assert_eq!(
            decoder.pop(),
            Some(Frame::Line(Bytes::from(&b"before"[..])))
        );
        assert_eq!(decoder.pop(), Some(Frame::TooLarge));
        assert_eq!(&*decoder.next_frame().unwrap(), b"after");
        decoder.push(&frame);
        decoder.push(b"y\nlast\n");
        assert_eq!(&*decoder.next_frame().unwrap(), b"last");
        // An unterminated oversized tail is not a frame at end-of-stream.
        decoder.push(&frame);
        decoder.push(b"z");
        assert_eq!(decoder.pop(), Some(Frame::TooLarge));
        assert!(decoder.finish().is_none());
    }

    #[test]
    fn scan_resumes_without_rescanning_the_prefix() {
        // Behavioural check: a long frame fed one byte at a time still
        // comes out whole (the scanned cursor is internal, but this is the
        // path that exercises it).
        let mut decoder = FrameDecoder::new();
        let payload = "x".repeat(4096);
        for byte in payload.as_bytes() {
            decoder.push(std::slice::from_ref(byte));
            assert!(decoder.next_frame().is_none());
        }
        decoder.push(b"\n");
        assert_eq!(&*decoder.next_frame().unwrap(), payload.as_bytes());
    }
}

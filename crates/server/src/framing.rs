//! The resumable line-framing state machine: raw socket bytes in,
//! complete protocol lines out, in arbitrary chunkings.
//!
//! The event-loop server reads whatever the kernel has — one byte, half a
//! request, twelve requests and a partial — and feeds it here.
//! [`LineFramer`] buffers across calls, so a request split over dozens of
//! TCP segments reassembles exactly, and a burst of pipelined requests
//! yields every line in order. Invalid UTF-8 passes through untouched
//! (lines are byte vectors; the session layer lossy-decodes, matching the
//! blocking server's historical semantics).
//!
//! Oversized lines are the one failure mode: a line longer than
//! `max_line` yields [`FrameEvent::Oversized`] once, then the framer
//! discards bytes until the next newline and resyncs — the session can
//! answer with a typed error and keep serving instead of buffering an
//! unbounded request (or desyncing onto the middle of it).

use std::collections::VecDeque;

/// Default per-line cap (1 MiB): comfortably above the largest documented
/// request (a 2000-row ingest batch is ~50 KiB) while bounding what one
/// connection can pin in memory.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// One framing outcome from [`LineFramer::pop_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete line, newline stripped (may be empty or non-UTF-8; the
    /// session layer trims and skips blanks).
    Line(Vec<u8>),
    /// The line in progress exceeded the cap; its buffered prefix was
    /// discarded and the framer is skipping to the next newline. Emitted
    /// exactly once per oversized line.
    Oversized {
        /// The configured cap the line overran.
        limit: usize,
    },
}

/// Incremental splitter of a byte stream into newline-terminated frames.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for `\n` — restarts from here so N
    /// tiny reads of one long line stay O(N), not O(N²).
    scanned: usize,
    max_line: usize,
    /// Inside an oversized line: drop bytes until the next newline.
    discarding: bool,
    ready: VecDeque<FrameEvent>,
}

impl LineFramer {
    /// A framer rejecting lines longer than `max_line` bytes (newline
    /// excluded). `max_line` must be nonzero; [`DEFAULT_MAX_LINE`] is the
    /// server's default.
    pub fn new(max_line: usize) -> Self {
        assert!(max_line > 0, "line cap must be nonzero");
        Self {
            buf: Vec::new(),
            scanned: 0,
            max_line,
            discarding: false,
            ready: VecDeque::new(),
        }
    }

    /// Feed freshly read bytes; complete frames become pending events.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.drain_buf();
    }

    /// Pop the next pending frame event, if any.
    pub fn pop_event(&mut self) -> Option<FrameEvent> {
        self.ready.pop_front()
    }

    /// Bytes buffered for the line still in progress (0 while
    /// discarding an oversized line).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn drain_buf(&mut self) {
        loop {
            match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    let end = self.scanned + rel;
                    let rest = self.buf.split_off(end + 1);
                    let mut line = std::mem::replace(&mut self.buf, rest);
                    line.pop(); // the newline
                    self.scanned = 0;
                    if self.discarding {
                        // The tail of an oversized line: swallow it and
                        // resync on the bytes that follow.
                        self.discarding = false;
                    } else if line.len() > self.max_line {
                        // The whole oversized line arrived in one chunk,
                        // newline included — reject it without entering
                        // discard mode (there is no tail to skip).
                        self.ready.push_back(FrameEvent::Oversized {
                            limit: self.max_line,
                        });
                    } else {
                        self.ready.push_back(FrameEvent::Line(line));
                    }
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.discarding {
                        // Still mid-oversized-line: nothing to keep.
                        self.buf.clear();
                        self.scanned = 0;
                    } else if self.buf.len() > self.max_line {
                        self.buf.clear();
                        self.scanned = 0;
                        self.discarding = true;
                        self.ready.push_back(FrameEvent::Oversized {
                            limit: self.max_line,
                        });
                    }
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(framer: &mut LineFramer) -> Vec<FrameEvent> {
        std::iter::from_fn(|| framer.pop_event()).collect()
    }

    #[test]
    fn reassembles_across_arbitrary_chunks() {
        let mut f = LineFramer::new(64);
        for &chunk in &[&b"{\"op\""[..], b":\"quit", b"\"}\n{\"op\"", b":\"x\"}\n"] {
            f.push(chunk);
        }
        assert_eq!(
            lines(&mut f),
            vec![
                FrameEvent::Line(b"{\"op\":\"quit\"}".to_vec()),
                FrameEvent::Line(b"{\"op\":\"x\"}".to_vec()),
            ]
        );
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_is_linear_and_exact() {
        let mut f = LineFramer::new(1024);
        let msg = b"hello world\nsecond\n";
        for &b in msg.iter() {
            f.push(&[b]);
        }
        assert_eq!(
            lines(&mut f),
            vec![
                FrameEvent::Line(b"hello world".to_vec()),
                FrameEvent::Line(b"second".to_vec()),
            ]
        );
    }

    #[test]
    fn oversized_line_reports_once_and_resyncs() {
        let mut f = LineFramer::new(8);
        f.push(b"0123456789"); // over the cap, no newline yet
        assert_eq!(f.pop_event(), Some(FrameEvent::Oversized { limit: 8 }));
        assert_eq!(f.pop_event(), None);
        f.push(b"more garbage without end");
        assert_eq!(f.pop_event(), None, "one oversized event per line");
        assert_eq!(f.buffered(), 0, "discarded bytes are not retained");
        f.push(b"tail\nok\n");
        assert_eq!(lines(&mut f), vec![FrameEvent::Line(b"ok".to_vec())]);
    }

    #[test]
    fn exactly_at_the_cap_is_allowed() {
        let mut f = LineFramer::new(4);
        f.push(b"abcd\nabcde\nz\n");
        assert_eq!(
            lines(&mut f),
            vec![
                FrameEvent::Line(b"abcd".to_vec()),
                FrameEvent::Oversized { limit: 4 },
                FrameEvent::Line(b"z".to_vec()),
            ]
        );
    }

    #[test]
    fn empty_lines_and_crlf_pass_through() {
        let mut f = LineFramer::new(64);
        f.push(b"\n\r\na\r\n");
        assert_eq!(
            lines(&mut f),
            vec![
                FrameEvent::Line(b"".to_vec()),
                FrameEvent::Line(b"\r".to_vec()),
                FrameEvent::Line(b"a\r".to_vec()),
            ]
        );
    }

    #[test]
    fn non_utf8_bytes_survive_framing() {
        let mut f = LineFramer::new(64);
        f.push(&[0xFF, 0xFE, b'\n']);
        assert_eq!(lines(&mut f), vec![FrameEvent::Line(vec![0xFF, 0xFE])]);
    }
}

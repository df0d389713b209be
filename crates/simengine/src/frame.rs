//! The shared length-prefix frame codec.
//!
//! One implementation of the workspace's wire framing, used by both
//! halves of the preprocessing data plane (`dt-preprocess`'s `wire`, the
//! §5.1 producer/consumer protocol) and by the `dt-serve` planner daemon's
//! request/response protocol. It lives here, beside the [`Json`] value and
//! the [`TraceContext`] it carries, so the daemon frames its requests
//! without linking the data plane. Classic length-delimited framing, implemented synchronously:
//! every frame is a 4-byte little-endian length followed by that many
//! payload bytes. Control messages are JSON (small, debuggable), each a
//! [`WireJson`] type whose codec [`crate::schema`] generates from its
//! field list; bulk byte payloads travel as separate raw frames so they
//! are never base64-inflated.
//!
//! ```text
//! frame:        [u32 LE length][length payload bytes]
//! traced frame: [u32 LE (16+length) | TRACE_FLAG][16-byte TraceContext][payload]
//! ```
//!
//! The length header is *untrusted input* everywhere this codec is used
//! (a hostile or corrupt peer can claim anything), so [`read_frame`]
//! never allocates eagerly from the header: the payload buffer grows
//! [`FRAME_READ_CHUNK`] at a time as bytes actually arrive, and a header
//! above [`MAX_FRAME`] is rejected outright as protocol corruption.
//!
//! ## Trace-context extension
//!
//! A frame may carry a request-scoped [`TraceContext`] (trace id + parent
//! span id) ahead of its payload. The context rides *inside* the frame:
//! bit 31 of the length word — unreachable by honest lengths, since
//! [`MAX_FRAME`] is `1 << 30` — marks the first [`TRACE_CONTEXT_LEN`]
//! payload bytes as the context. The scheme is byte-compatible in every
//! direction that matters:
//!
//! * an **untraced writer** (or a traced writer with tracing disabled,
//!   `ctx == None`) produces exactly the classic encoding — zero wire
//!   overhead, zero allocation;
//! * a **trace-aware reader** ([`read_frame_ctx`]) accepts both flavours
//!   and returns `None` for the context on plain frames;
//! * a **legacy reader** ([`read_frame`]) sees a flagged length as
//!   oversized and fails with the same typed `InvalidData` it already
//!   uses for corrupt headers — a graceful, never-panicking close, which
//!   is the most an extension an old peer cannot understand can offer.

use crate::json::Json;
use crate::schema::WireJson;
use crate::trace::{TraceContext, TRACE_CONTEXT_LEN};
use std::io::{self, IoSlice, Read, Write};

/// Frames larger than this are rejected as protocol corruption.
pub const MAX_FRAME: u32 = 1 << 30;

/// Cap on request (control) frames: consumer requests and planner
/// requests are small JSON, so a length word claiming more is a hostile or
/// corrupt peer, rejected before any of its payload is buffered.
pub const MAX_CONTROL_FRAME: u32 = 64 * 1024;

/// Length-word bit marking a frame whose payload is prefixed by an
/// encoded [`TraceContext`].
pub const TRACE_FLAG: u32 = 1 << 31;

/// How much payload [`read_frame`] buffers per read step — and therefore
/// the most memory a corrupt length header can cost before the stream
/// proves it actually carries that many bytes.
pub const FRAME_READ_CHUNK: usize = 64 * 1024;

/// Write one frame: length word and payload leave in one vectored write
/// (one syscall on an unbuffered stream), so a socket with Nagle enabled
/// never holds the payload back behind the peer's delayed ACK.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_ctx(w, None, payload)
}

/// The length word of a frame carrying `len` payload bytes — flagged and
/// followed by the encoded context when `ctx` is set — built on the stack.
/// Returns the buffer and how many of its bytes are the head.
fn frame_head(
    ctx: Option<&TraceContext>,
    len: usize,
) -> io::Result<([u8; 4 + TRACE_CONTEXT_LEN], usize)> {
    let ctx_len = if ctx.is_some() { TRACE_CONTEXT_LEN } else { 0 };
    let word = u32::try_from(len.saturating_add(ctx_len))
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut head = [0u8; 4 + TRACE_CONTEXT_LEN];
    match ctx {
        Some(ctx) => {
            head[..4].copy_from_slice(&(word | TRACE_FLAG).to_le_bytes());
            head[4..].copy_from_slice(&ctx.encode());
        }
        None => head[..4].copy_from_slice(&word.to_le_bytes()),
    }
    Ok((head, 4 + ctx_len))
}

/// `write_all` over a gather list: resumes partial writes in place with
/// [`IoSlice::advance_slices`], never copying or allocating.
fn write_all_slices(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "vectored write stalled",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame.
///
/// The length header is untrusted input: a corrupt 4-byte prefix can
/// claim anything up to [`MAX_FRAME`] (1 GiB), so the payload buffer is
/// grown incrementally ([`FRAME_READ_CHUNK`] at a time) as bytes actually
/// arrive, never allocated eagerly from the header. A truncated or
/// corrupt stream errors with [`io::ErrorKind::UnexpectedEof`] after
/// buffering at most the bytes it really sent (plus one chunk).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    read_payload(r, len as usize)
}

/// Chunked hostile-safe payload read shared by [`read_frame`] and
/// [`read_frame_ctx`]: the buffer grows [`FRAME_READ_CHUNK`] at a time as
/// bytes actually arrive.
fn read_payload(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut payload: Vec<u8> = Vec::with_capacity(len.min(FRAME_READ_CHUNK));
    let mut filled = 0usize;
    while filled < len {
        let step = (len - filled).min(FRAME_READ_CHUNK);
        payload.resize(filled + step, 0);
        r.read_exact(&mut payload[filled..filled + step])?;
        filled += step;
    }
    Ok(payload)
}

/// Write one frame, optionally prefixed by a trace context. `ctx == None`
/// produces the classic encoding — the untraced path stays free (no
/// flag, no extra bytes, no allocation). Either way the head (length word
/// plus context) and the payload go out in one vectored write.
pub fn write_frame_ctx(
    w: &mut impl Write,
    ctx: Option<&TraceContext>,
    payload: &[u8],
) -> io::Result<()> {
    let (head, head_len) = frame_head(ctx, payload.len())?;
    write_all_slices(
        w,
        &mut [IoSlice::new(&head[..head_len]), IoSlice::new(payload)],
    )?;
    w.flush()
}

/// Read one frame that may carry a trace context. Plain frames come back
/// with `None`; flagged frames decode their leading
/// [`TRACE_CONTEXT_LEN`] bytes. Hostile input — a flagged length shorter
/// than a context, an oversized length, an all-zero (invalid) context, a
/// stream that ends mid-context — fails with a typed `InvalidData` /
/// `UnexpectedEof`, never a panic, and never an eager allocation from the
/// untrusted header.
///
/// A length word claiming more than `max` bytes (trace context included,
/// and never more than [`MAX_FRAME`]) is `InvalidData` before any payload
/// byte is read. Bulk readers pass [`MAX_FRAME`]; request readers pass
/// [`MAX_CONTROL_FRAME`].
pub fn read_frame_ctx(r: &mut impl Read, max: u32) -> io::Result<(Option<TraceContext>, Vec<u8>)> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let word = u32::from_le_bytes(head);
    let len = word & !TRACE_FLAG;
    if len > max.min(MAX_FRAME) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    if word & TRACE_FLAG == 0 {
        return Ok((None, read_payload(r, len as usize)?));
    }
    if (len as usize) < TRACE_CONTEXT_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "truncated trace context",
        ));
    }
    let mut ctx_bytes = [0u8; TRACE_CONTEXT_LEN];
    r.read_exact(&mut ctx_bytes)?;
    let ctx = TraceContext::decode(&ctx_bytes)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "invalid trace context"))?;
    let payload = read_payload(r, len as usize - TRACE_CONTEXT_LEN)?;
    Ok((Some(ctx), payload))
}

/// Coalesce one response — a JSON header frame plus a raw payload frame
/// whose body is the concatenation of `payload_chunks` — into a single
/// vectored write:
///
/// ```text
/// [u32 LE header len][header][u32 LE Σchunk len][chunk 0]…[chunk n-1]
/// ```
///
/// Byte-identical on the wire to `write_json` + `write_frame` over the
/// concatenated payload, but with zero payload copies and one syscall
/// instead of two.
pub fn write_batch_frames(
    w: &mut impl Write,
    header: &[u8],
    payload_chunks: &[&[u8]],
) -> io::Result<()> {
    write_batch_frames_ctx(w, None, header, payload_chunks)
}

/// [`write_batch_frames`] with an optional trace context on the header
/// frame (the bulk payload frame is never flagged — the context scopes
/// the whole response). `ctx == None` is byte-identical to
/// [`write_batch_frames`].
pub fn write_batch_frames_ctx(
    w: &mut impl Write,
    ctx: Option<&TraceContext>,
    header: &[u8],
    payload_chunks: &[&[u8]],
) -> io::Result<()> {
    let (header_head, header_head_len) = frame_head(ctx, header.len())?;
    let (payload_head, _) = frame_head(None, payload_chunks.iter().map(|c| c.len()).sum())?;
    let mut slices = Vec::with_capacity(3 + payload_chunks.len());
    slices.push(IoSlice::new(&header_head[..header_head_len]));
    slices.push(IoSlice::new(header));
    slices.push(IoSlice::new(&payload_head[..4]));
    slices.extend(payload_chunks.iter().map(|c| IoSlice::new(c)));
    write_all_slices(w, &mut slices)?;
    w.flush()
}

/// Write a JSON control message as one frame.
pub fn write_json<T: WireJson>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    write_frame(w, msg.to_json().to_string().as_bytes())
}

/// Read a JSON control message from one frame.
pub fn read_json<T: WireJson>(r: &mut impl Read) -> io::Result<T> {
    let payload = read_frame(r)?;
    decode_json(&payload)
}

/// Write a JSON control message as one frame, with an optional trace
/// context (`None` is byte-identical to [`write_json`]).
pub fn write_json_ctx<T: WireJson>(
    w: &mut impl Write,
    ctx: Option<&TraceContext>,
    msg: &T,
) -> io::Result<()> {
    write_frame_ctx(w, ctx, msg.to_json().to_string().as_bytes())
}

/// Read a JSON control message from one frame that may carry a trace
/// context, capped at `max` bytes as in [`read_frame_ctx`]: both network
/// planes read their requests with `max` = [`MAX_CONTROL_FRAME`].
pub fn read_json_ctx<T: WireJson>(
    r: &mut impl Read,
    max: u32,
) -> io::Result<(Option<TraceContext>, T)> {
    let (ctx, payload) = read_frame_ctx(r, max)?;
    Ok((ctx, decode_json(&payload)?))
}

fn decode_json<T: WireJson>(payload: &[u8]) -> io::Result<T> {
    let text =
        std::str::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let value = Json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    T::from_json(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn truncated_frame_errors_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cur = Cursor::new(buf);
        let err = read_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Regression: a corrupt header claiming a huge frame over a stream
    /// that then ends must error with `UnexpectedEof` — the old eager
    /// `vec![0u8; len]` ballooned to the claimed size before reading a
    /// single payload byte (the allocation bound itself is pinned by the
    /// counting-allocator test in `tests/wire_alloc.rs`).
    #[test]
    fn corrupt_length_header_errors_cleanly() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_FRAME.to_le_bytes()); // claims 1 GiB
        buf.extend_from_slice(&[7u8; 100]); // …but carries 100 bytes
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn multi_chunk_frame_round_trips() {
        let payload: Vec<u8> = (0..3 * FRAME_READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), payload);
    }

    #[test]
    fn batch_frames_match_the_unbatched_encoding_byte_for_byte() {
        let header = br#"{"samples":[],"token_lens":[3,0,4]}"#;
        let chunks: [&[u8]; 3] = [b"abc", b"", b"wxyz"];
        let mut coalesced = Vec::new();
        write_batch_frames(&mut coalesced, header, &chunks).unwrap();
        let mut reference = Vec::new();
        write_frame(&mut reference, header).unwrap();
        write_frame(&mut reference, &chunks.concat()).unwrap();
        assert_eq!(
            coalesced, reference,
            "coalescing must not change the wire bytes"
        );
        // And it reads back as two ordinary frames.
        let mut cur = Cursor::new(coalesced);
        assert_eq!(read_frame(&mut cur).unwrap(), header);
        assert_eq!(read_frame(&mut cur).unwrap(), b"abcwxyz");
    }

    #[test]
    fn empty_payload_batch_still_frames() {
        let mut buf = Vec::new();
        write_batch_frames(&mut buf, b"hdr", &[]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"hdr");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
    }

    /// A writer that accepts at most `limit` bytes per call and ignores the
    /// vectored fast path — exercises the partial-write resume logic.
    struct Dribble {
        out: Vec<u8>,
        limit: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.limit);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let parts: [&[u8]; 4] = [b"alpha", b"", b"beta", b"gamma!"];
        for limit in [1usize, 2, 3, 7, 100] {
            let mut w = Dribble {
                out: Vec::new(),
                limit,
            };
            write_batch_frames(&mut w, b"hdr", &parts).unwrap();
            let mut cur = Cursor::new(w.out);
            assert_eq!(read_frame(&mut cur).unwrap(), b"hdr", "limit {limit}");
            assert_eq!(
                read_frame(&mut cur).unwrap(),
                b"alphabetagamma!",
                "limit {limit}"
            );
        }
    }

    /// A writer that takes every byte it is offered and counts the calls.
    #[derive(Default)]
    struct CallCounter {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for CallCounter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            bufs.iter().for_each(|b| self.out.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Regression: a frame written as two calls (length word, then
    /// payload) leaves the payload behind Nagle until the peer's delayed
    /// ACK — ~40 ms per request on a long-lived session.
    #[test]
    fn each_frame_is_one_write_call() {
        let mut w = CallCounter::default();
        write_frame(&mut w, b"payload").unwrap();
        assert_eq!(w.calls, 1, "untraced frame");
        let mut w = CallCounter::default();
        write_frame_ctx(&mut w, Some(&ctx()), b"payload").unwrap();
        assert_eq!(w.calls, 1, "traced frame");
        let mut reference = Vec::new();
        write_frame_ctx(&mut reference, Some(&ctx()), b"payload").unwrap();
        assert_eq!(w.out, reference);
        let mut w = CallCounter::default();
        write_batch_frames_ctx(&mut w, Some(&ctx()), b"hdr", &[b"ab", b"cd"]).unwrap();
        assert_eq!(w.calls, 1, "batch response");
    }

    #[test]
    fn capped_read_rejects_the_length_word_before_the_payload() {
        // Claims one byte over the cap and carries nothing after the
        // length word: an uncapped read would wait for the body.
        for flag in [0, TRACE_FLAG] {
            let buf = ((MAX_CONTROL_FRAME + 1) | flag).to_le_bytes();
            let err = read_frame_ctx(&mut Cursor::new(&buf), MAX_CONTROL_FRAME).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        let mut buf = Vec::new();
        write_frame_ctx(&mut buf, Some(&ctx()), &[7u8; 100]).unwrap();
        let (got, payload) = read_frame_ctx(&mut Cursor::new(&buf), 116).unwrap();
        assert_eq!(
            (got, payload.len()),
            (Some(ctx()), 100),
            "the cap counts the context"
        );
        let err = read_frame_ctx(&mut Cursor::new(&buf), 115).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: 0x1234_5678_9ABC_DEF0,
            parent_span: 0x42,
        }
    }

    /// The full traced↔untraced peer matrix at the codec level.
    #[test]
    fn trace_context_peer_matrix() {
        // traced writer → traced reader: context round-trips.
        let mut buf = Vec::new();
        write_frame_ctx(&mut buf, Some(&ctx()), b"payload").unwrap();
        let (got, payload) = read_frame_ctx(&mut Cursor::new(&buf), MAX_FRAME).unwrap();
        assert_eq!(got, Some(ctx()));
        assert_eq!(payload, b"payload");

        // traced writer, tracing disabled → byte-identical to the classic
        // encoding, so untraced readers interoperate unchanged.
        let mut off = Vec::new();
        write_frame_ctx(&mut off, None, b"payload").unwrap();
        let mut classic = Vec::new();
        write_frame(&mut classic, b"payload").unwrap();
        assert_eq!(off, classic);

        // untraced writer → traced reader: no context, same payload.
        let (got, payload) = read_frame_ctx(&mut Cursor::new(&classic), MAX_FRAME).unwrap();
        assert_eq!(got, None);
        assert_eq!(payload, b"payload");

        // traced writer → untraced (legacy) reader: typed InvalidData on
        // the flagged length, never a panic.
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn traced_batch_header_matches_framing_and_round_trips() {
        let header = br#"{"token_lens":[3]}"#;
        let chunks: [&[u8]; 2] = [b"abc", b"de"];
        let mut buf = Vec::new();
        write_batch_frames_ctx(&mut buf, Some(&ctx()), header, &chunks).unwrap();
        let mut cur = Cursor::new(&buf);
        let (got, hdr) = read_frame_ctx(&mut cur, MAX_FRAME).unwrap();
        assert_eq!(got, Some(ctx()));
        assert_eq!(hdr, header);
        let (bulk_ctx, bulk) = read_frame_ctx(&mut cur, MAX_FRAME).unwrap();
        assert_eq!(bulk_ctx, None, "bulk frame is never flagged");
        assert_eq!(bulk, b"abcde");

        // ctx == None is byte-identical to the plain batch encoding.
        let mut off = Vec::new();
        write_batch_frames_ctx(&mut off, None, header, &chunks).unwrap();
        let mut classic = Vec::new();
        write_batch_frames(&mut classic, header, &chunks).unwrap();
        assert_eq!(off, classic);
    }

    #[test]
    fn hostile_trace_context_bytes_never_panic() {
        // Flagged length shorter than a context.
        let mut buf = (8u32 | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        let err = read_frame_ctx(&mut Cursor::new(&buf), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Flagged length, stream ends mid-context.
        let mut buf = (24u32 | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[1u8; 5]);
        let err = read_frame_ctx(&mut Cursor::new(&buf), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // All-zero context bytes (invalid trace id 0).
        let mut buf = (16u32 | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame_ctx(&mut Cursor::new(&buf), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Flagged and oversized.
        let mut buf = ((MAX_FRAME + 1) | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        let err = read_frame_ctx(&mut Cursor::new(&buf), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Flagged huge-but-legal length over a stream that ends: the
        // chunked read must bound allocation and fail with UnexpectedEof.
        let mut buf = (MAX_FRAME | TRACE_FLAG).to_le_bytes().to_vec();
        buf.extend_from_slice(&ctx().encode());
        buf.extend_from_slice(&[7u8; 100]);
        let err = read_frame_ctx(&mut Cursor::new(&buf), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn json_ctx_round_trips_both_flavours() {
        let mut buf = Vec::new();
        write_json_ctx(&mut buf, Some(&ctx()), &7u64).unwrap();
        write_json_ctx(&mut buf, None, &9u64).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_json_ctx::<u64>(&mut cur, MAX_FRAME).unwrap(),
            (Some(ctx()), 7)
        );
        assert_eq!(
            read_json_ctx::<u64>(&mut cur, MAX_FRAME).unwrap(),
            (None, 9)
        );
    }
}

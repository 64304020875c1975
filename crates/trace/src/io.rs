//! Trace serialization: a compact, versioned binary format.
//!
//! Traces are the interchange artifact of this stack (the paper's
//! profiler writes PA traces to disk and the learners read them back).
//! The format is deliberately simple — a magic header, a version byte, a
//! record count, then fixed-width little-endian records — so it can be
//! parsed from any language.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SDAMTRC\0"
//! 8       1     version (currently 2)
//! 9       7     reserved (zero)
//! 16      8     record count (u64 LE)
//! 24      16*n  records: addr u64 | thread u16 | variable u32
//!               | flags u8 (bit 0 = write) | pad u8
//! ```
//!
//! Two access styles are provided:
//!
//! * [`read_trace`] / [`write_trace`] — whole-trace convenience wrappers
//!   that materialize the entire trace in memory, and
//! * [`TraceReader`] / [`TraceWriter`] — streaming codecs that touch a
//!   bounded buffer (one block of `BLOCK_RECORDS` records) regardless
//!   of trace size, so traces larger than RAM can be produced and
//!   replayed record-at-a-time.
//!
//! The wrappers are implemented *on top of* the streaming codecs, so
//! both paths share one encoder/decoder and one set of error semantics.

use std::io::{self, Read, Write};

use crate::{MemAccess, ThreadId, Trace, VariableId};

/// File magic.
const MAGIC: [u8; 8] = *b"SDAMTRC\0";

/// Current format version.
const VERSION: u8 = 2;

/// Bytes per record in the on-disk format.
const RECORD_BYTES: usize = 16;

/// Records per streaming I/O block (the resident-buffer unit of
/// [`TraceReader`] and [`TraceWriter`]): 4096 records = 64 KiB.
const BLOCK_RECORDS: usize = 4096;

const HEADER_BYTES: usize = 24;

/// Errors from reading or writing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// The header is structurally invalid (e.g. nonzero reserved bytes),
    /// which usually means the stream is corrupt rather than foreign.
    BadHeader {
        /// Which header constraint failed.
        what: &'static str,
    },
    /// Unsupported format version.
    BadVersion(u8),
    /// The stream ended before `count` records were read.
    Truncated {
        /// Records expected.
        expected: u64,
        /// Records actually read.
        got: u64,
    },
    /// A [`TraceWriter`] was given a different number of records than
    /// its header declared, so the stream would be self-inconsistent.
    CountMismatch {
        /// Records the header declares.
        declared: u64,
        /// Records actually pushed.
        written: u64,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => write!(f, "not an SDAM trace (bad magic)"),
            TraceIoError::BadHeader { what } => write!(f, "corrupt trace header: {what}"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated { expected, got } => {
                write!(f, "trace truncated: expected {expected} records, got {got}")
            }
            TraceIoError::CountMismatch { declared, written } => {
                write!(
                    f,
                    "trace count mismatch: header declares {declared} records, {written} written"
                )
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

#[inline]
fn encode_record(a: &MemAccess, rec: &mut [u8; RECORD_BYTES]) {
    rec[0..8].copy_from_slice(&a.addr.to_le_bytes());
    rec[8..10].copy_from_slice(&a.thread.0.to_le_bytes());
    rec[10..14].copy_from_slice(&a.variable.0.to_le_bytes());
    rec[14] = u8::from(a.is_write);
    rec[15] = 0;
}

#[inline]
fn decode_record(rec: &[u8]) -> MemAccess {
    MemAccess {
        addr: u64::from_le_bytes(field(&rec[0..8])),
        thread: ThreadId(u16::from_le_bytes(field(&rec[8..10]))),
        variable: VariableId(u32::from_le_bytes(field(&rec[10..14]))),
        is_write: rec[14] & 1 != 0,
    }
}

fn encode_header(count: u64) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..8].copy_from_slice(&MAGIC);
    h[8] = VERSION;
    h[16..24].copy_from_slice(&count.to_le_bytes());
    h
}

/// A streaming trace reader: parses the header eagerly, then yields
/// records through [`Iterator`] from a bounded internal buffer
/// (`BLOCK_RECORDS` records), so resident memory is constant no
/// matter how large the trace on disk is.
///
/// Truncation is typed: if the stream ends before the declared record
/// count — even mid-record — the iterator yields exactly one
/// [`TraceIoError::Truncated`] carrying the declared count and the
/// number of *complete* records read, then fuses to `None`.
///
/// ```
/// use sdam_trace::io::{write_trace, TraceReader};
/// use sdam_trace::gen::StrideGen;
///
/// let t = StrideGen::new(0x1000, 64, 10).into_trace();
/// let mut buf = Vec::new();
/// write_trace(&t, &mut buf).unwrap();
/// let reader = TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(reader.expected_records(), 10);
/// let back: Result<Vec<_>, _> = reader.collect();
/// assert_eq!(back.unwrap(), t.accesses());
/// ```
pub struct TraceReader<R: Read> {
    r: R,
    expected: u64,
    read: u64,
    buf: Vec<u8>,
    filled: usize,
    pos: usize,
    failed: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace stream, consuming and validating its 24-byte
    /// header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::BadMagic`] if the stream is shorter than
    /// a header or the magic differs, [`TraceIoError::BadVersion`] /
    /// [`TraceIoError::BadHeader`] for version or reserved-byte
    /// corruption, and [`TraceIoError::Io`] for underlying failures.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let mut header = [0u8; HEADER_BYTES];
        r.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                TraceIoError::BadMagic
            } else {
                TraceIoError::Io(e)
            }
        })?;
        if header[0..8] != MAGIC {
            return Err(TraceIoError::BadMagic);
        }
        if header[8] != VERSION {
            return Err(TraceIoError::BadVersion(header[8]));
        }
        if header[9..16].iter().any(|&b| b != 0) {
            return Err(TraceIoError::BadHeader {
                what: "reserved bytes must be zero",
            });
        }
        let expected = u64::from_le_bytes(field(&header[16..24]));
        Ok(TraceReader {
            r,
            expected,
            read: 0,
            // The block buffer is the *entire* resident footprint: the
            // declared count never sizes an allocation, so a corrupt
            // count cannot OOM the reader.
            buf: vec![0u8; BLOCK_RECORDS * RECORD_BYTES],
            filled: 0,
            pos: 0,
            failed: false,
        })
    }

    /// The record count the header declares.
    pub fn expected_records(&self) -> u64 {
        self.expected
    }

    /// Slides any partial record to the buffer front and fills the rest
    /// from the reader until the buffer is full or the stream ends.
    fn refill(&mut self) -> io::Result<()> {
        self.buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
        while self.filled < self.buf.len() {
            match self.r.read(&mut self.buf[self.filled..]) {
                Ok(0) => break,
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<MemAccess, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.read == self.expected {
            return None;
        }
        if self.filled - self.pos < RECORD_BYTES {
            if let Err(e) = self.refill() {
                self.failed = true;
                return Some(Err(TraceIoError::Io(e)));
            }
            if self.filled < RECORD_BYTES {
                // Less than one record remains in the whole stream: the
                // trailing partial record (if any) counts as truncation,
                // exactly like `read_exact`'s UnexpectedEof did.
                self.failed = true;
                return Some(Err(TraceIoError::Truncated {
                    expected: self.expected,
                    got: self.read,
                }));
            }
        }
        let a = decode_record(&self.buf[self.pos..self.pos + RECORD_BYTES]);
        self.pos += RECORD_BYTES;
        self.read += 1;
        Some(Ok(a))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            return (0, Some(0));
        }
        let left = (self.expected - self.read).min(usize::MAX as u64) as usize;
        // Truncation can end the stream early, so `left` is only an
        // upper bound.
        (0, Some(left))
    }
}

/// A streaming trace writer for sinks whose record count is known up
/// front: the header is written eagerly with the declared count and
/// [`TraceWriter::finish`] verifies the caller delivered exactly that
/// many records.
///
/// Records are batched through a `BLOCK_RECORDS`-record buffer, so
/// arbitrarily long traces stream to disk with constant resident
/// memory.
pub struct TraceWriter<W: Write> {
    w: W,
    declared: u64,
    written: u64,
    buf: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace stream declaring `count` records; the header is
    /// written immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn with_count(mut w: W, count: u64) -> Result<Self, TraceIoError> {
        w.write_all(&encode_header(count))?;
        Ok(TraceWriter {
            w,
            declared: count,
            written: 0,
            buf: Vec::with_capacity(BLOCK_RECORDS * RECORD_BYTES),
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::CountMismatch`] if this would exceed the
    /// declared count, or an I/O error from flushing a full block.
    pub fn push(&mut self, a: &MemAccess) -> Result<(), TraceIoError> {
        if self.written == self.declared {
            return Err(TraceIoError::CountMismatch {
                declared: self.declared,
                written: self.written + 1,
            });
        }
        let mut rec = [0u8; RECORD_BYTES];
        encode_record(a, &mut rec);
        self.buf.extend_from_slice(&rec);
        self.written += 1;
        if self.buf.len() >= BLOCK_RECORDS * RECORD_BYTES {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes buffered records and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::CountMismatch`] if fewer records than
    /// declared were pushed (the stream would read back as truncated),
    /// or an I/O error from the final flush.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        if self.written != self.declared {
            return Err(TraceIoError::CountMismatch {
                declared: self.declared,
                written: self.written,
            });
        }
        if !self.buf.is_empty() {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Writes a trace to `w`. A `&mut` writer works too (`Write` is
/// implemented for `&mut W`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace<W: Write>(trace: &Trace, w: W) -> Result<(), TraceIoError> {
    let mut writer = TraceWriter::with_count(w, trace.len() as u64)?;
    for a in trace.iter() {
        writer.push(a)?;
    }
    writer.finish()?;
    Ok(())
}

/// Reads a trace from `r`.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure, bad magic/version, or a
/// truncated stream.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut reader = TraceReader::new(r)?;
    // The count is attacker-controlled until the records actually
    // arrive, so it only *hints* the pre-allocation (growth is amortized
    // for genuinely large traces; a corrupt count costs nothing).
    let mut trace = Trace::with_capacity(reader.expected_records().min(1 << 16) as usize);
    for a in &mut reader {
        trace.push(a?);
    }
    Ok(trace)
}

/// Copies a fixed-width field out of a record slice. The caller passes
/// slices whose length is a compile-time constant range, so the copy
/// never misfits; this keeps the parse loop free of `try_into` panics.
fn field<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StrideGen;

    fn sample() -> Trace {
        let mut t = Trace::new();
        StrideGen::new(0x1000, 64, 100)
            .variable(VariableId(3))
            .thread(ThreadId(2))
            .emit(&mut t);
        StrideGen::new(1 << 30, 4096, 50).writes().emit(&mut t);
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + RECORD_BYTES * t.len());
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&Trace::new(), &mut buf).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), Trace::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTATRACE________________".to_vec();
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(TraceIoError::BadMagic)
        ));
        assert!(matches!(read_trace(&b""[..]), Err(TraceIoError::BadMagic)));
    }

    #[test]
    fn bad_version_rejected() {
        // Version 1 carried a program counter in a 24-byte record; its
        // streams are refused, not misparsed at the 16-byte stride.
        for v in [1, 9] {
            let mut buf = Vec::new();
            write_trace(&sample(), &mut buf).unwrap();
            buf[8] = v;
            assert!(matches!(
                read_trace(buf.as_slice()),
                Err(TraceIoError::BadVersion(got)) if got == v
            ));
        }
    }

    #[test]
    fn corrupted_reserved_bytes_rejected() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf[12] = 0xff;
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(TraceIoError::BadHeader { .. })
        ));
    }

    #[test]
    fn header_only_stream_with_huge_count_is_truncated_not_oom() {
        // A corrupt count must not pre-allocate unboundedly or panic; it
        // reads what is there and reports truncation.
        let mut buf = Vec::new();
        write_trace(&Trace::new(), &mut buf).unwrap();
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        match read_trace(buf.as_slice()) {
            Err(TraceIoError::Truncated { expected, got }) => {
                assert_eq!(expected, u64::MAX);
                assert_eq!(got, 0);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn mid_record_truncation_detected() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf.truncate(HEADER_BYTES + RECORD_BYTES / 2);
        match read_trace(buf.as_slice()) {
            Err(TraceIoError::Truncated { expected, got }) => {
                assert_eq!(expected, 150);
                assert_eq!(got, 0);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        match read_trace(buf.as_slice()) {
            Err(TraceIoError::Truncated { expected, got }) => {
                assert_eq!(expected, 150);
                assert_eq!(got, 149);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn streaming_reader_matches_in_memory_read() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.expected_records(), t.len() as u64);
        let streamed: Vec<MemAccess> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(streamed, t.accesses());
    }

    #[test]
    fn streaming_reader_truncation_fuses() {
        // After yielding a Truncated error once, the iterator returns
        // None rather than repeating the error forever.
        let mut buf = Vec::new();
        write_trace(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut errs = 0;
        let mut oks = 0;
        for r in &mut reader {
            match r {
                Ok(_) => oks += 1,
                Err(TraceIoError::Truncated { expected, got }) => {
                    errs += 1;
                    assert_eq!(expected, 150);
                    assert_eq!(got, 149);
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!((oks, errs), (149, 1));
        assert!(reader.next().is_none());
    }

    #[test]
    fn trace_writer_spans_multiple_blocks() {
        // More records than one block buffer holds, to exercise the
        // flush-and-refill path on both ends.
        let t = StrideGen::new(0, 64, 3 * BLOCK_RECORDS as u64 + 17).into_trace();
        let mut writer = TraceWriter::with_count(Vec::new(), t.len() as u64).unwrap();
        for a in t.iter() {
            writer.push(a).unwrap();
        }
        let buf = writer.finish().unwrap();
        let mut direct = Vec::new();
        write_trace(&t, &mut direct).unwrap();
        assert_eq!(buf, direct);
        assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn trace_writer_enforces_declared_count() {
        let a = MemAccess::read(64, VariableId(0));
        // Too few records: finish refuses.
        let mut w = TraceWriter::with_count(Vec::new(), 2).unwrap();
        w.push(&a).unwrap();
        match w.finish() {
            Err(TraceIoError::CountMismatch { declared, written }) => {
                assert_eq!((declared, written), (2, 1));
            }
            other => panic!("expected count mismatch, got {other:?}"),
        }
        // Too many records: push refuses.
        let mut w = TraceWriter::with_count(Vec::new(), 1).unwrap();
        w.push(&a).unwrap();
        assert!(matches!(
            w.push(&a),
            Err(TraceIoError::CountMismatch {
                declared: 1,
                written: 2
            })
        ));
    }

    #[test]
    fn error_display() {
        let e = TraceIoError::Truncated {
            expected: 5,
            got: 2,
        };
        assert!(e.to_string().contains("expected 5"));
        let e = TraceIoError::CountMismatch {
            declared: 7,
            written: 3,
        };
        assert!(e.to_string().contains("declares 7"));
    }
}

//! Property tests for the binary trace format: the streaming codecs
//! ([`TraceReader`], [`TraceWriter`]) must agree byte-for-byte and
//! record-for-record with the in-memory [`read_trace`]/[`write_trace`]
//! pair, and any truncation of a valid stream must surface as a typed
//! error, never a panic or a silently short trace.

use proptest::prelude::*;
use sdam_trace::io::{read_trace, write_trace, TraceIoError, TraceReader, TraceWriter};
use sdam_trace::{MemAccess, ThreadId, Trace, VariableId};

/// Traces of up to `n` records with all fields exercised (full-domain
/// addresses and pcs, both directions, many threads/variables).
fn traces(n: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(any::<u64>(), 0..n).prop_map(|seeds| {
        seeds
            .iter()
            .map(|&s| MemAccess {
                addr: s,
                pc: s.rotate_left(17) ^ 0xabcd_ef01,
                thread: ThreadId((s >> 11) as u16),
                variable: VariableId((s >> 29) as u32),
                is_write: s & 1 == 1,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_codecs_agree_with_in_memory_codec(trace in traces(300)) {
        let mut via_fn = Vec::new();
        write_trace(&trace, &mut via_fn).unwrap();

        // The declared-count writer produces identical bytes.
        let mut w = TraceWriter::with_count(Vec::new(), trace.len() as u64).unwrap();
        for a in trace.iter() {
            w.push(a).unwrap();
        }
        prop_assert_eq!(&w.finish().unwrap(), &via_fn);

        // Both read paths recover the original trace.
        prop_assert_eq!(&read_trace(via_fn.as_slice()).unwrap(), &trace);
        let reader = TraceReader::new(via_fn.as_slice()).unwrap();
        prop_assert_eq!(reader.expected_records(), trace.len() as u64);
        let streamed: Result<Vec<_>, _> = reader.collect();
        prop_assert_eq!(streamed.unwrap(), trace.accesses().to_vec());
    }

    #[test]
    fn any_truncation_is_a_typed_error(trace in traces(80), cut_seed in any::<u64>()) {
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        // A strict prefix of the stream.
        let cut = (cut_seed % buf.len() as u64) as usize;
        let short = &buf[..cut];
        match read_trace(short) {
            // Fewer than 24 bytes cannot even prove the magic.
            Err(TraceIoError::BadMagic) => prop_assert!(cut < 24),
            // With a header, the reader must report the declared count
            // and exactly the number of complete records present.
            Err(TraceIoError::Truncated { expected, got }) => {
                prop_assert!(cut >= 24);
                prop_assert_eq!(expected, trace.len() as u64);
                prop_assert_eq!(got, ((cut - 24) / 24) as u64);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(t) => prop_assert!(false, "truncated stream read {} records", t.len()),
        }
        // The streaming reader agrees: complete records first, then the
        // same typed error.
        if cut >= 24 {
            let mut reader = TraceReader::new(short).unwrap();
            let mut complete = 0u64;
            let mut saw_truncation = false;
            for r in &mut reader {
                match r {
                    Ok(_) => complete += 1,
                    Err(TraceIoError::Truncated { got, .. }) => {
                        prop_assert_eq!(got, complete);
                        saw_truncation = true;
                    }
                    Err(other) => prop_assert!(false, "unexpected error: {other}"),
                }
            }
            prop_assert!(saw_truncation);
            prop_assert_eq!(complete, ((cut - 24) / 24) as u64);
        }
    }
}

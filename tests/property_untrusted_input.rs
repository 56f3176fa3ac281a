//! No-panic guarantee for untrusted input.
//!
//! Everything that parses bytes a client (or a file on disk) controls —
//! the wire-frame reader, the request/response decoders, the CSV
//! tokenizer — must return `Ok` or a *typed* error for arbitrary input.
//! A panic here would unwind a server worker or a scan thread on
//! attacker-chosen bytes; the firewall would contain it, but the
//! guarantee this suite enforces is stronger: the parsers themselves
//! never panic.
//!
//! Runs at the default case count locally; CI raises `PROPTEST_CASES`
//! for a deeper sweep.

mod common;

use std::io::Cursor;

use proptest::prelude::*;

use nodb::rawcsv::{scan_bytes, CsvOptions, ScanSpec};
use nodb::server::framing::{read_frame, write_frame, FrameDecoder};
use nodb::server::protocol::{Request, Response};
use nodb::types::{CmpOp, ColPred, Conjunction, DataType, Field, Schema, Value, WorkCounters};

proptest! {
    /// Arbitrary bytes through the frame reader: every frame is either
    /// decoded or refused with a typed error; the reader never panics
    /// and never trusts an unvalidated length prefix.
    #[test]
    fn frame_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut r = Cursor::new(bytes);
        // Drain the stream: each iteration consumes one frame, ends it
        // (Ok(None)) or poisons it (typed Err). Bounded by input length.
        for _ in 0..64 {
            match read_frame(&mut r) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A length prefix promising up to 4 GiB followed by garbage must be
    /// refused by the limit check, not allocated.
    #[test]
    fn huge_length_prefixes_are_refused(len in any::<u32>(), tail in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        let mut r = Cursor::new(bytes);
        let _ = read_frame(&mut r); // must not panic or abort on OOM
    }

    /// Torn-frame fuzzing: the reactor's incremental [`FrameDecoder`]
    /// sees the byte stream in arbitrary 1..k-byte chunks, the blocking
    /// [`read_frame`] sees it whole — and they must agree exactly. The
    /// same complete frames come out in the same order, an oversized
    /// length prefix raises the same typed error, and a stream cut off
    /// mid-frame (the blocking reader's "eof inside frame" error) is
    /// reported by `has_partial`. Never a panic, regardless of where
    /// the chunk boundaries fall.
    #[test]
    fn torn_frames_decode_identically_to_blocking_reader(
        // A mix of well-formed frames and raw garbage, so the stream
        // exercises clean boundaries, torn headers, torn payloads and
        // hostile length prefixes.
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..4),
        tail in proptest::collection::vec(any::<u8>(), 0..24),
        chunk in 1usize..9,
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f).unwrap();
        }
        bytes.extend_from_slice(&tail);

        // Reference: the blocking reader over the whole stream.
        let mut r = Cursor::new(bytes.clone());
        let mut blocking_frames = Vec::new();
        let blocking_end = loop {
            match read_frame(&mut r) {
                Ok(Some(f)) => blocking_frames.push(f),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.to_string()),
            }
        };

        // Candidate: the incremental decoder, fed `chunk` bytes at a
        // time as a readiness loop would.
        let mut dec = FrameDecoder::new();
        for piece in bytes.chunks(chunk) {
            dec.feed(piece);
        }
        let mut torn_frames = Vec::new();
        let torn_end = loop {
            match dec.next_frame() {
                Ok(Some(f)) => torn_frames.push(f),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e.to_string()),
            }
        };

        prop_assert_eq!(&torn_frames, &blocking_frames, "decoded frames diverged");
        match (&blocking_end, &torn_end) {
            // Oversized length prefix: identical typed error.
            (Err(b), Err(t)) => prop_assert_eq!(b, t, "different framing errors"),
            // Clean end between frames: the decoder holds nothing back.
            (Ok(()), Ok(())) => prop_assert!(
                !dec.has_partial(),
                "decoder reports a partial frame on a cleanly ended stream"
            ),
            // The blocking reader saw EOF mid-frame (or refused a
            // length the decoder has not completed yet): the decoder
            // must be visibly mid-frame so the reactor treats EOF here
            // as a torn frame, not a clean close.
            (Err(_), Ok(())) => prop_assert!(
                dec.has_partial(),
                "blocking reader errored ({:?}) but decoder reports no partial frame",
                blocking_end
            ),
            (Ok(()), Err(_)) => prop_assert!(
                false,
                "decoder errored ({:?}) where the blocking reader ended cleanly",
                torn_end
            ),
        }
    }

    /// Arbitrary payload bytes through both message decoders.
    #[test]
    fn message_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Bit-flipped and truncated *valid* requests: corruption of a
    /// well-formed frame is the realistic failure mode, and it must be
    /// just as typed as random bytes.
    #[test]
    fn mutated_valid_requests_never_panic(
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let valid = Request::Query {
            sql: "select a1, sum(a2) from t where a1 > 17 group by a1".to_owned(),
        }
        .encode();
        let mut corrupt = valid.clone();
        let at = flip_at % corrupt.len();
        corrupt[at] = flip_to;
        corrupt.truncate(cut % (corrupt.len() + 1));
        let _ = Request::decode(&corrupt);
        let _ = Response::decode(&corrupt);
    }

    /// Arbitrary bytes through the CSV tokenizer, across dialects,
    /// thread counts, schema widths and pushdowns: `Ok` or typed error,
    /// no panic. (With `threads > 1` a worker panic would be converted to
    /// a typed internal error by the morsel driver — this test holds the
    /// parsers to the stronger standard by running serial *and*
    /// parallel.) The drawn pushdown tests int, float and text columns,
    /// sometimes past the needed ones, so the kernel's abandon path runs
    /// on the same bytes.
    #[test]
    fn tokenizer_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        quote in proptest::option::of(Just(b'"')),
        lenient in any::<bool>(),
        threads in 1usize..3,
        width in 1usize..4,
        needed in 0usize..4,
        preds in proptest::collection::vec((0usize..4, 0usize..6, -20i64..20), 0..3),
    ) {
        let types = [DataType::Int64, DataType::Float64, DataType::Str, DataType::Int64];
        let schema = Schema::new(
            (0..width).map(|c| Field::new(format!("c{c}"), types[c])).collect(),
        )
        .unwrap();
        let opts = CsvOptions {
            delimiter: b',',
            quote,
            threads,
            lenient,
            skip_blank_rows: true,
        };
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        let conj = Conjunction::new(
            preds
                .iter()
                .map(|&(col, op, v)| {
                    let literal = match types[col % width] {
                        DataType::Int64 => Value::Int(v),
                        DataType::Float64 => Value::Float(v as f64 / 2.0),
                        DataType::Str => Value::Str(v.to_string()),
                    };
                    ColPred::new(col % width, ops[op], literal)
                })
                .collect(),
        );
        let spec = ScanSpec {
            schema: &schema,
            needed: (0..needed.min(width)).collect(),
            pushdown: (!preds.is_empty()).then_some(&conj),
        };
        let counters = WorkCounters::default();
        let _ = scan_bytes(&bytes, &opts, &spec, None, &counters);
    }

    /// Numeric-looking lines with injected junk: the typed path the
    /// paper's workloads take. Whatever parses must parse the same way
    /// twice (determinism), and a typed error must not poison a second
    /// scan of different, valid bytes.
    #[test]
    fn tokenizer_errors_do_not_poison_later_scans(
        junk in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let schema = Schema::ints(2);
        let opts = CsvOptions { threads: 2, ..CsvOptions::default() };
        let spec = ScanSpec { schema: &schema, needed: vec![0, 1], pushdown: None };
        let counters = WorkCounters::default();
        let mut dirty = b"1,2\n".to_vec();
        dirty.extend_from_slice(&junk);
        let first = scan_bytes(&dirty, &opts, &spec, None, &counters);
        let second = scan_bytes(&dirty, &opts, &spec, None, &counters);
        match (&first, &second) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.rowids, &b.rowids);
                prop_assert_eq!(a.rows_scanned, b.rows_scanned);
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "same bytes, different verdicts"),
        }
        let clean = scan_bytes(b"7,8\n9,10\n", &opts, &spec, None, &counters).unwrap();
        prop_assert_eq!(clean.rows_scanned, 2);
        prop_assert_eq!(
            clean.columns[&0].get(0),
            Value::Int(7),
        );
    }
}

/// An empty frame is whole once its 4-byte header is in: the decoder
/// hands it out at once, as `read_frame` does, whether the header came in
/// one feed or byte by byte, and nothing is left partial.
#[test]
fn an_empty_frame_decodes_as_soon_as_its_header_is_fed() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"").unwrap();
    assert_eq!(
        read_frame(&mut Cursor::new(&wire)).unwrap(),
        Some(Vec::new())
    );
    for piece in [wire.len(), 1] {
        let mut dec = FrameDecoder::new();
        for bytes in wire.chunks(piece) {
            assert!(!dec.has_frame(), "a frame before its header ended");
            dec.feed(bytes);
        }
        assert!(!dec.has_partial(), "fed {piece} at a time");
        assert_eq!(dec.next_frame().unwrap(), Some(Vec::new()));
        assert_eq!(dec.next_frame().unwrap(), None);
    }
}

/// Hostile byte streams must not leak connection slots. Every garbage
/// pattern below ends a connection through a different reactor path —
/// framing poison, a message-level decode error before the handshake,
/// EOF on a torn frame — against a server with only 3 slots and no
/// admission queue. If any path forgot to free its slot, the server
/// would be full of ghosts within a few rounds and the legitimate
/// client interleaved between them would be refused with BUSY.
#[test]
fn garbage_streams_do_not_leak_connection_slots() {
    use std::io::Write as _;
    use std::sync::Arc;
    use std::time::Duration;

    use nodb::core::{Engine, EngineConfig, LoadingStrategy};
    use nodb::{Client, NodbServer, ServerConfig};

    let dir = common::test_dir("untrusted_slots");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    let t = dir.join("t.csv");
    common::write_int_table(&t, 50, 2);
    engine.register_table("t", &t).unwrap();
    let server = NodbServer::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 3,
            max_queued: 0,
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // One slot-ending path per pattern: an oversized length prefix
    // (framing poison -> typed error -> close), a complete frame of
    // undecodable payload before HELLO (decode error -> close), a torn
    // frame abandoned mid-payload (EOF with a partial -> reap), a torn
    // header (EOF after 2 bytes), and an immediate hangup.
    let patterns: [&[u8]; 5] = [
        &[0xff, 0xff, 0xff, 0xff, 0xde, 0xad],
        &[3, 0, 0, 0, 0xee, 0xee, 0xee],
        &[16, 0, 0, 0, 1, 2, 3],
        &[9, 0],
        &[],
    ];
    for round in 0..4 {
        for pattern in patterns {
            let mut sock = std::net::TcpStream::connect(addr).expect("garbage socket connects");
            if !pattern.is_empty() {
                sock.write_all(pattern).unwrap();
            }
            drop(sock);
            // A real client must still get one of the 3 slots. Brief
            // retries absorb the race with the reactor reaping the
            // garbage socket it just saw.
            let mut ok = None;
            for _ in 0..50 {
                match Client::connect(addr) {
                    Ok(c) => {
                        ok = Some(c);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            let mut client = ok.unwrap_or_else(|| {
                panic!("server out of slots after garbage round {round}: leaked connection slot")
            });
            let (_, rows) = client.query_all("select count(*) from t").unwrap();
            assert_eq!(rows, vec![vec![Value::Int(50)]]);
            client.quit().unwrap();
        }
    }
    server.shutdown();
}

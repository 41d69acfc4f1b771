//! Differential property suite for the wire-protocol codecs: the
//! incremental [`FrameDecoder`] (reactor path) against the blocking
//! `read_frame_limited` (client and non-Linux fallback path), over
//! arbitrary byte streams fed at arbitrary split boundaries. The wire
//! tests at the end pin the reactor's error and success frames to
//! goldens.
//!
//! The two codecs are independent implementations of the same grammar;
//! any divergence — a frame decoded by one and not the other, a
//! different error message, a panic, a hang — is a bug. Streams mix
//! valid frames, junk header lines, oversized declarations, truncated
//! frames, missing terminators, non-UTF-8 payloads, and partial headers
//! at EOF.
//!
//! Junk lines are kept far below the decoder's 4 KiB header cap — the
//! cap is the incremental codec's one documented divergence (the
//! blocking reader will buffer an unbounded header line; the reactor
//! refuses to).

use std::io::BufRead;

use plt::serve::FrameDecoder;
use proptest::prelude::*;

/// How a codec run ended after the decoded frames.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Terminal {
    /// Clean EOF at a frame boundary.
    Clean,
    /// EOF mid-frame (peer died); no error frame owed.
    Truncated,
    /// Protocol violation; the message is the wire-visible error text.
    Error(String),
}

/// Runs the blocking codec over the whole stream.
fn run_blocking(bytes: &[u8], max_frame: usize) -> (Vec<String>, Terminal) {
    let mut frames = Vec::new();
    let mut r = std::io::BufReader::new(std::io::Cursor::new(bytes));
    loop {
        match plt::serve::proto::read_frame_limited(&mut r, max_frame) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Terminal::Clean),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return (frames, Terminal::Error(e.to_string()))
            }
            Err(_) => return (frames, Terminal::Truncated),
        }
    }
}

/// Runs the incremental decoder, pushing `bytes` in chunks cut at
/// pseudo-random boundaries derived from `split_seed`.
fn run_incremental(bytes: &[u8], max_frame: usize, split_seed: u64) -> (Vec<String>, Terminal) {
    let mut frames = Vec::new();
    let mut dec = FrameDecoder::new(max_frame);
    let mut state = split_seed | 1;
    let mut next_chunk = move || {
        // splitmix64 step; chunk lengths 1..=17 skew small to stress
        // resumption across every boundary class.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % 17 + 1
    };
    let mut offset = 0;
    while offset < bytes.len() {
        let end = (offset + next_chunk()).min(bytes.len());
        dec.push(&bytes[offset..end]);
        offset = end;
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return (frames, Terminal::Error(e.to_string())),
            }
        }
    }
    match dec.finish() {
        Ok(false) => (frames, Terminal::Clean),
        Ok(true) => (frames, Terminal::Truncated),
        Err(e) => (frames, Terminal::Error(e.to_string())),
    }
}

/// Builds one stream segment from a `(kind, len, fill)` triple.
fn build_segment(out: &mut Vec<u8>, kind: u8, len: u16, fill: u8, max_frame: usize) {
    match kind % 8 {
        // Well-formed frame, printable payload.
        0 | 1 => {
            let payload: Vec<u8> = (0..len % 200)
                .map(|i| b' ' + ((fill as u16 + i) % 94) as u8)
                .collect();
            out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
            out.extend_from_slice(&payload);
            out.push(b'\n');
        }
        // Well-formed frame, arbitrary bytes (may be non-UTF-8 and may
        // embed newlines — the length prefix governs).
        2 => {
            let payload: Vec<u8> = (0..len % 200)
                .map(|i| (fill as u16 + i * 7) as u8)
                .collect();
            out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
            out.extend_from_slice(&payload);
            out.push(b'\n');
        }
        // Junk header line (non-numeric, short of the header cap).
        3 => {
            let junk: Vec<u8> = (0..len % 40 + 1)
                .map(|i| b'a' + ((fill as u16 + i) % 26) as u8)
                .collect();
            out.extend_from_slice(&junk);
            out.push(b'\n');
        }
        // Oversized declaration.
        4 => {
            out.extend_from_slice(format!("{}\n", max_frame + 1 + len as usize).as_bytes());
        }
        // Declared frame, truncated payload (what follows — or EOF —
        // gets consumed as payload bytes).
        5 => {
            let declared = len % 100 + 10;
            let sent = declared / 2;
            out.extend_from_slice(format!("{declared}\n").as_bytes());
            out.extend((0..sent).map(|i| b'a' + (i % 26) as u8));
        }
        // Frame with the terminator replaced by a payload-like byte.
        6 => {
            let payload: Vec<u8> = (0..len % 50).map(|i| b'0' + (i % 10) as u8).collect();
            out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
            out.extend_from_slice(&payload);
            out.push(b'X');
        }
        // Bare digits, no newline (only meaningful as the final
        // segment: a partial header at EOF).
        _ => {
            out.extend_from_slice(format!("{}", len % 1000).as_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both codecs decode the identical frame sequence and agree on the
    /// terminal outcome — clean close, truncation, or the exact error
    /// text — for any segment mix at any chunking.
    #[test]
    fn incremental_and_blocking_codecs_agree(
        segments in proptest::collection::vec((0u8..8, 0u16..1000, 0u8..255), 1..10),
        split_seed in any::<u64>(),
        max_sel in 64u16..512,
    ) {
        let max_frame = max_sel as usize;
        let mut bytes = Vec::new();
        for (kind, len, fill) in &segments {
            build_segment(&mut bytes, *kind, *len, *fill, max_frame);
        }

        let (bf, bt) = run_blocking(&bytes, max_frame);
        let (inf, it) = run_incremental(&bytes, max_frame, split_seed);

        prop_assert_eq!(&bf, &inf, "decoded frames diverge on {:?}", &segments);
        prop_assert_eq!(&bt, &it, "terminal outcome diverges on {:?}", &segments);
    }

    /// Round-trip at every split: a stream of well-formed frames is
    /// recovered byte-identically however the reads are chunked.
    #[test]
    fn well_formed_streams_round_trip_at_any_split(
        payloads in proptest::collection::vec((0u16..300, 0u8..255), 0..12),
        split_seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        let mut expect = Vec::new();
        for (len, fill) in &payloads {
            let payload: String = (0..len % 300)
                .map(|i| (b' ' + ((*fill as u16 + i) % 94) as u8) as char)
                .collect();
            bytes.extend_from_slice(format!("{}\n{}\n", payload.len(), payload).as_bytes());
            expect.push(payload);
        }
        let (frames, terminal) = run_incremental(&bytes, 16 * 1024 * 1024, split_seed);
        prop_assert_eq!(frames, expect);
        prop_assert_eq!(terminal, Terminal::Clean);
    }
}

/// The incremental decoder's one intentional divergence: a header line
/// that never terminates is cut off at 4 KiB instead of buffering
/// without bound. The blocking reader would happily read it forever.
#[test]
fn runaway_headers_are_capped_not_buffered() {
    let mut dec = FrameDecoder::with_default_limit();
    dec.push(&vec![b'9'; 8192]); // digits, but no newline ever
    let err = dec
        .next_frame()
        .expect_err("runaway header must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        dec.buffered() <= 8192,
        "decoder kept buffering after rejecting the header"
    );
}

/// Error frames the thread-per-connection and reactor models both
/// emitted, byte for byte, for the malformed frames in
/// [`malformed_frames_get_the_golden_error_frames`], captured while both
/// models still existed. The reactor must keep emitting exactly these.
const GOLDEN_FRAME_ERRORS: [&str; 5] = [
    r#"{"ok":false,"error":"invalid frame header \"notanumber\\n\""}"#,
    r#"{"ok":false,"error":"frame of 16777217 bytes exceeds limit"}"#,
    r#"{"ok":false,"error":"frame missing trailing newline"}"#,
    r#"{"ok":false,"error":"json error at byte 0: invalid literal"}"#,
    r#"{"ok":false,"error":"unknown op \"warp\""}"#,
];

/// Golden error replies to the malformed requests in
/// [`error_frames_match_the_goldens_for_both_envelope_versions`], per
/// envelope version, captured from both models like
/// [`GOLDEN_FRAME_ERRORS`].
const GOLDEN_REQUEST_ERRORS: [[&str; 3]; 2] = [
    [
        r#"{"ok":false,"error":"unknown op \"warp\""}"#,
        r#"{"ok":false,"error":"query: TOP count must be an integer, found end of query"}"#,
        r#"{"ok":false,"error":"json error at byte 0: invalid literal"}"#,
    ],
    [
        r#"{"v":2,"status":"error","stale":false,"approx":false,"error_bound":null,"generation":null,"data":{"error":"unknown op \"warp\""}}"#,
        r#"{"v":2,"status":"error","stale":false,"approx":false,"error_bound":null,"generation":null,"data":{"error":"query: TOP count must be an integer, found end of query"}}"#,
        r#"{"v":2,"status":"error","stale":false,"approx":false,"error_bound":null,"generation":null,"data":{"error":"json error at byte 0: invalid literal"}}"#,
    ],
];

/// Starts a one-reactor server over a tiny warmup window.
fn start_server() -> (plt::serve::ServerHandle, plt::serve::BuilderHandle) {
    start_server_with(&[vec![1, 2], vec![1, 2], vec![1, 3]], None)
}

/// [`start_server`] over another warmup, optionally with a sketch.
fn start_server_with(
    warmup: &[Vec<u32>],
    sketch: Option<plt::serve::SketchConfig>,
) -> (plt::serve::ServerHandle, plt::serve::BuilderHandle) {
    use plt::serve::{bootstrap, serve, BuilderConfig, ServerConfig};

    let config = BuilderConfig {
        window_capacity: 64,
        min_support: 2,
        sketch,
        ..BuilderConfig::default()
    };
    let (engine, builder) = bootstrap(warmup, config).expect("bootstrap");
    let handle = serve(
        "127.0.0.1:0",
        engine,
        Some(builder.queue()),
        ServerConfig {
            reactors: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    (handle, builder)
}

fn write_frame(s: &mut std::net::TcpStream, payload: &str) {
    use std::io::Write;
    s.write_all(format!("{}\n{}\n", payload.len(), payload).as_bytes())
        .expect("write frame");
}

fn read_frame(r: &mut impl BufRead) -> Option<String> {
    let mut line = String::new();
    if r.read_line(&mut line).unwrap_or(0) == 0 {
        return None;
    }
    let len: usize = line.trim().parse().expect("response header");
    let mut payload = vec![0u8; len + 1];
    std::io::Read::read_exact(r, &mut payload).expect("response payload");
    payload.pop();
    Some(String::from_utf8(payload).expect("utf-8 response"))
}

/// Deterministic wire differential: malformed frames get byte-identical
/// error frames to the goldens, one fresh connection per case.
#[test]
fn malformed_frames_get_the_golden_error_frames() {
    use std::io::Write;

    let cases: Vec<Vec<u8>> = vec![
        b"notanumber\n{}\n".to_vec(),
        format!("{}\n", 16 * 1024 * 1024 + 1).into_bytes(),
        b"2\n{}X".to_vec(),
        b"7\nnotjson\n".to_vec(),
        b"13\n{\"op\":\"warp\"}\n".to_vec(),
    ];
    let (handle, builder) = start_server();
    for (case, golden) in cases.iter().zip(GOLDEN_FRAME_ERRORS) {
        let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        s.write_all(case).expect("write");
        let reply = read_frame(&mut std::io::BufReader::new(s));
        assert_eq!(
            reply.as_deref(),
            Some(golden),
            "{:?}",
            String::from_utf8_lossy(case)
        );
    }
    handle.shutdown();
    builder.stop();
}

/// The same differential, per envelope version: a v2 connection
/// (negotiated via `hello`) gets its protocol errors wrapped in the v2
/// envelope, while v1 connections keep the flat frames — both
/// byte-identical to the goldens.
#[test]
fn error_frames_match_the_goldens_for_both_envelope_versions() {
    use plt::serve::json::Json;

    // Malformed *requests* only (valid frames): framing violations kill
    // the connection before version negotiation can matter.
    let cases = [
        r#"{"op":"warp"}"#,
        r#"{"op":"query","expr":"TOP"}"#,
        r#"not json"#,
    ];
    let (handle, builder) = start_server();
    for (version, goldens) in [1u64, 2].into_iter().zip(GOLDEN_REQUEST_ERRORS) {
        for (case, golden) in cases.iter().zip(goldens) {
            let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
            s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            if version >= 2 {
                write_frame(&mut s, &format!(r#"{{"op":"hello","version":{version}}}"#));
            }
            write_frame(&mut s, case);
            let mut r = std::io::BufReader::new(s);
            if version >= 2 {
                read_frame(&mut r).expect("hello ack");
            }
            let reply = read_frame(&mut r).unwrap_or_else(|| String::from("<closed>"));
            assert_eq!(reply, golden, "v{version}: {case}");

            // Every reply carries the shape its version promises.
            let v = Json::parse(&reply).expect("error replies are JSON");
            if version >= 2 {
                assert_eq!(v.get("v").and_then(Json::as_u64), Some(2), "{reply}");
                assert_eq!(
                    v.get("status").and_then(Json::as_str),
                    Some("error"),
                    "{reply}"
                );
            } else {
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
                assert!(v.get("v").is_none(), "v1 frames stay flat: {reply}");
            }
        }
    }
    handle.shutdown();
    builder.stop();
}

/// A framing error is answered in the envelope in force when its frame
/// is sent, not when it is decoded: a `hello` pipelined in the same
/// write as a malformed header switches the connection to v2 first, so
/// the error frame that follows its ack is a v2 frame too.
#[test]
fn a_framing_error_after_a_pipelined_hello_is_a_v2_frame() {
    use plt::serve::json::Json;
    use std::io::Write;

    let (handle, builder) = start_server();
    let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let hello = r#"{"op":"hello","version":2}"#;
    s.write_all(format!("{}\n{hello}\nnotanumber\n", hello.len()).as_bytes())
        .expect("one write");
    let mut r = std::io::BufReader::new(s);
    let ack = read_frame(&mut r).expect("hello ack");
    assert_eq!(
        Json::parse(&ack).unwrap().get("v").and_then(Json::as_u64),
        Some(2)
    );
    let error = read_frame(&mut r).expect("error frame");
    assert_eq!(
        error,
        r#"{"v":2,"status":"error","stale":false,"approx":false,"error_bound":null,"generation":null,"data":{"error":"invalid frame header \"notanumber\\n\""}}"#
    );
    assert_eq!(
        read_frame(&mut r),
        None,
        "framing errors close the connection"
    );
    handle.shutdown();
    builder.stop();
}

/// Requests of the success-frame goldens, in the order they are sent on
/// one connection. The read requests run twice (the first pass misses
/// the response cache, the second hits it); the no-wait ingest acks and
/// the shutdown ack come last, after every read, so the generation a
/// read reports cannot depend on when a publish lands.
const SUCCESS_READS: [&str; 12] = [
    r#"{"op":"support","items":[1,2]}"#,
    r#"{"op":"support","items":[1,99]}"#,
    r#"{"op":"top_k","k":3,"min_size":1}"#,
    r#"{"op":"extensions","items":[1],"k":3}"#,
    r#"{"op":"recommend","items":[2],"k":3}"#,
    r#"{"op":"query","expr":"SUPPORT OF {1, 2}"}"#,
    r#"{"op":"query","expr":"SUPPORT OF {1, 2} APPROX"}"#,
    r#"{"op":"query","expr":"TOP 3 WHERE support >= 2 AND size >= 1"}"#,
    // Same normal form, different spelling: a plan-cache hit on a
    // response-cache miss.
    r#"{"op":"query","expr":"top 3 where size >= 1 and support >= 2"}"#,
    r#"{"op":"query","expr":"RULES WHERE confidence >= 0.5 TOP 4"}"#,
    r#"{"op":"query","expr":"MINE COND {1} TOP 2"}"#,
    r#"{"op":"ping"}"#,
];

/// Sends the success transcript for one envelope version and returns
/// every reply frame: the `hello` ack, both passes over
/// [`SUCCESS_READS`], two no-wait ingest acks and the shutdown ack.
fn success_transcript(version: u64) -> Vec<String> {
    // Every non-empty subset of {1, 2, 3, 4} of size 2 or more, with
    // {1, 2} twice: small enough to read, and with a sketch at ε = 0.4
    // the planner answers `SUPPORT OF {1, 2} APPROX` from the sample.
    let warmup = vec![
        vec![1, 2],
        vec![1, 2],
        vec![1, 3],
        vec![2, 3],
        vec![1, 2, 3],
        vec![1, 4],
        vec![2, 4],
        vec![3, 4],
        vec![1, 2, 4],
        vec![1, 3, 4],
        vec![2, 3, 4],
        vec![1, 2, 3, 4],
    ];
    let sketch = plt::serve::SketchConfig {
        epsilon: 0.4,
        ..plt::serve::SketchConfig::default()
    };
    let (handle, builder) = start_server_with(&warmup, Some(sketch));
    let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut r = std::io::BufReader::new(s.try_clone().expect("clone"));
    let hello = format!(r#"{{"op":"hello","version":{version}}}"#);
    let ingest = r#"{"op":"ingest","transactions":[[1,2]],"wait":false}"#;
    let mut requests = vec![hello.as_str(), hello.as_str()];
    requests.extend(SUCCESS_READS);
    requests.extend(SUCCESS_READS);
    requests.extend([ingest, ingest, r#"{"op":"shutdown"}"#]);
    let mut replies = Vec::new();
    for request in requests {
        write_frame(&mut s, request);
        replies.push(read_frame(&mut r).unwrap_or_else(|| String::from("<closed>")));
    }
    handle.join();
    builder.stop();
    replies
}

/// Success frames for [`success_transcript`], one per line, v1 then v2,
/// captured from the server while every reply was a v1 string that v2
/// connections re-parsed. The typed renderer must keep emitting exactly
/// these bytes.
const GOLDEN_SUCCESS: [&str; 2] = [
    include_str!("golden/success_frames_v1.txt"),
    include_str!("golden/success_frames_v2.txt"),
];

/// Deterministic wire differential for successful replies: every op the
/// server answers, per envelope version, on a response-cache miss and
/// then a hit, byte-identical to the goldens.
#[test]
fn success_frames_match_the_goldens_for_both_envelope_versions() {
    for (version, golden) in [1u64, 2].into_iter().zip(GOLDEN_SUCCESS) {
        let replies = success_transcript(version);
        let golden: Vec<&str> = golden.lines().collect();
        assert_eq!(replies.len(), golden.len(), "v{version}");
        for (i, (reply, golden)) in replies.iter().zip(golden).enumerate() {
            assert_eq!(reply, golden, "v{version} reply {i}");
        }
    }
}

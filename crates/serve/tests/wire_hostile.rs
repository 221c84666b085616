//! The wire decoder and the frame reader under hostile bytes: **typed
//! error, never a panic, allocation bounded by the bytes received**.
//!
//! A fixture holding every [`Request`] and [`Response`] variant (every
//! [`ServeError`] kind, a populated metrics snapshot, trace events), each
//! encoding at most [`SMALL`] bytes, is a typed `Err` truncated at every
//! offset and `Ok` or a typed `Err` with any one byte replaced; so are
//! seeded random strings of up to [`SMALL`] bytes (half of them behind a
//! valid tag, so the field decoders are reached). Whatever decodes `Ok`
//! re-encodes to the very bytes it came from — the format is canonical,
//! nothing is silently dropped — and no decode requests more than
//! [`DECODE_BUDGET`] bytes. The frame reader is held to the same rule one
//! layer down: a header may claim [`MAX_FRAME`], but memory is committed
//! as payload bytes arrive. The loops, the generator and the per-thread
//! meter are `hima_testkit::hostile`'s.

use hima_serve::protocol::{read_frame, MAX_FRAME};
use hima_serve::{RawSessionSpec, Request, Response, ServeError, WireError};
use hima_telemetry::{HistogramSnapshot, MetricsSnapshot, TraceEvent, TraceKind};
use hima_testkit::hostile::{byte_replacements, truncations, within, Xorshift};
use hima_testkit::metered;
use std::io::ErrorKind;

#[global_allocator]
static A: hima_testkit::CountingAlloc = hima_testkit::CountingAlloc;

/// Payload size the allocation bound is stated for.
const SMALL: usize = 256;
/// What one decode of a payload of at most [`SMALL`] bytes may request.
const DECODE_BUDGET: u64 = 64 << 10;

fn requests() -> Vec<Request> {
    vec![
        Request::Open { spec: RawSessionSpec::demo() },
        Request::Step { session: 9, input: vec![0.5, -1.5, f32::MIN_POSITIVE], deadline_ms: 40 },
        Request::StepStream {
            session: 1,
            inputs: vec![vec![1.0, 2.0], vec![], vec![3.0, 4.0, 5.0]],
            deadline_ms: 1500,
        },
        Request::ReadRows { session: 3 },
        Request::Reset { session: u64::MAX },
        Request::Close { session: 0 },
        Request::Shutdown,
        Request::Metrics,
        Request::TraceDump,
    ]
}

fn responses() -> Vec<Response> {
    let snapshot = MetricsSnapshot {
        counters: vec![("serve.scheduler.ticks".into(), u64::MAX), ("net.frames_in".into(), 0)],
        gauges: vec![("serve.sessions.live".into(), -3), ("queue".into(), i64::MIN)],
        histograms: vec![
            ("tick_ns".into(), HistogramSnapshot { count: 3, sum: 77, buckets: vec![1, 0, 2] }),
            ("empty".into(), HistogramSnapshot { count: 0, sum: 0, buckets: vec![] }),
        ],
    };
    let events = vec![
        TraceEvent { seq: 0, at_us: 10, kind: TraceKind::Open, session: 1, detail: 0 },
        TraceEvent { seq: 1, at_us: 25, kind: TraceKind::Park, session: 1, detail: 4 },
        TraceEvent { seq: 2, at_us: 99, kind: TraceKind::SessionFailed, session: 1, detail: 3 },
    ];
    let mut all = vec![
        Response::Opened { session: 12 },
        Response::Stepped { outputs: vec![vec![0.25; 4], vec![], vec![-0.5; 2]] },
        Response::Rows { read: vec![1.0, -2.0, f32::NAN] },
        Response::Done,
        Response::ShuttingDown,
        Response::Metrics { snapshot },
        Response::Metrics { snapshot: MetricsSnapshot::default() },
        Response::Trace { events },
        Response::Trace { events: Vec::new() },
    ];
    all.extend(
        [
            ServeError::BadSpec("word_size must be positive".into()),
            ServeError::UnknownSession(44),
            ServeError::SessionBusy(44),
            ServeError::BadInput("want 4 got 3 — naïve".into()),
            ServeError::Protocol(String::new()),
            ServeError::ShuttingDown,
            ServeError::Store("snapshot checksum mismatch".into()),
            ServeError::Overloaded { retry_after_ms: 250 },
            ServeError::DeadlineExceeded { session: 7 },
            ServeError::GroupFailed(0),
        ]
        .map(Response::Error),
    );
    all
}

/// A message type of the protocol: its total decoder and its encoder.
struct Codec<M> {
    name: &'static str,
    decode: fn(&[u8]) -> Result<M, WireError>,
    encode: fn(&M) -> Vec<u8>,
}

const REQUEST: Codec<Request> =
    Codec { name: "Request", decode: Request::decode, encode: Request::encode };
const RESPONSE: Codec<Response> =
    Codec { name: "Response", decode: Response::decode, encode: Response::encode };

impl<M> Codec<M> {
    /// One decode of hostile bytes: no panic and the allocation bound (the
    /// payload is printed if either fails), and — when it decodes — the
    /// canonical round trip. Returns whether it decoded.
    fn decodes(&self, payload: &[u8]) -> bool {
        assert!(payload.len() <= SMALL, "the bound is stated for small payloads");
        let case = format_args!("{}::decode of {payload:02x?}", self.name);
        let Ok(message) = within(DECODE_BUDGET, case, || (self.decode)(payload)) else {
            return false;
        };
        assert_eq!((self.encode)(&message), payload, "{}: non-canonical payload", self.name);
        true
    }

    fn truncations_and_byte_flips(&self, fixture: &[M], seed: u64) {
        let mut rng = Xorshift(seed);
        for message in fixture {
            let payload = (self.encode)(message);
            assert!(self.decodes(&payload), "the fixture itself decodes");
            for prefix in truncations(&payload) {
                assert!(!self.decodes(prefix), "prefix {} of {payload:02x?}", prefix.len());
            }
            byte_replacements(&payload, &mut rng, 6).for_each(|(.., b)| _ = self.decodes(&b));
        }
    }

    /// `tags` is the highest valid tag byte of the message type.
    fn random_strings(&self, tags: u8, seed: u64) {
        let mut rng = Xorshift(seed);
        let mut decoded = 0;
        for case in 0..40_000 {
            let len = rng.below(SMALL as u64 + 1) as usize;
            let mut hostile: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if let (Some(first), true) = (hostile.first_mut(), case % 2 == 0) {
                *first = 1 + rng.next_u64() as u8 % tags;
            }
            // Small counts now and then, so a vector field can be satisfied.
            if case % 4 == 0 {
                hostile.iter_mut().skip(1).step_by(3).for_each(|b| *b %= 4);
            }
            decoded += self.decodes(&hostile) as usize;
        }
        assert!(decoded > 0, "no random {} decoded: the generator stops at the tag", self.name);
    }
}

#[test]
fn requests_survive_truncation_and_byte_flips() {
    REQUEST.truncations_and_byte_flips(&requests(), 0x5eed_0001);
}

#[test]
fn responses_survive_truncation_and_byte_flips() {
    RESPONSE.truncations_and_byte_flips(&responses(), 0x5eed_0002);
}

#[test]
fn random_request_bytes_are_ok_or_typed_errors() {
    REQUEST.random_strings(9, 0x5eed_0003);
}

#[test]
fn random_response_bytes_are_ok_or_typed_errors() {
    RESPONSE.random_strings(8, 0x5eed_0004);
}

#[test]
fn a_frame_header_reserves_no_more_than_the_bytes_that_follow() {
    // The header claims the cap and the peer hangs up: a typed error, and
    // not the 64 MiB the header asked for.
    let header = MAX_FRAME.to_le_bytes();
    let got = within((128 << 10) - 1, "a 4-byte header", || read_frame(&mut &header[..]));
    assert_eq!(got.unwrap_err().kind(), ErrorKind::UnexpectedEof);

    // The same header with 300 KiB behind it: memory follows the bytes
    // received (doubling), still far from the claim.
    let mut partial = header.to_vec();
    partial.resize(4 + (300 << 10), 0xab);
    let got = within(4 * (300 << 10) - 1, "300 KiB received", || read_frame(&mut &partial[..]));
    assert_eq!(got.unwrap_err().kind(), ErrorKind::UnexpectedEof);

    // One past the cap is refused outright.
    let over = (MAX_FRAME + 1).to_le_bytes();
    assert_eq!(read_frame(&mut &over[..]).unwrap_err().kind(), ErrorKind::InvalidData);

    // A step-sized frame is one exact allocation; a large one arrives
    // whole through the growing buffer.
    for len in [0usize, 1, 31, 32, 33, 4096, 64 << 10, (64 << 10) + 1, 1 << 20] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let mut framed = (len as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        let (got, spent) = metered(|| read_frame(&mut &framed[..]));
        assert_eq!(got.unwrap().as_deref(), Some(&payload[..]), "len {len}");
        if (1..=64 << 10).contains(&len) {
            assert_eq!((spent.calls, spent.bytes), (1, len as u64), "len {len}: one exact allocation");
        }
    }
}

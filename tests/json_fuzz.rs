//! Fuzzing the JSON reader and the served request edge with the
//! vendored proptest: arbitrary bytes never panic the reader, the HTTP
//! request reader, the `SimRequest` decoder or its validation; strings
//! full of quotes, backslashes, control and non-ASCII characters
//! survive a write/read round trip.

use proptest::prelude::*;
use relsim_serve::http::read_request;
use relsim_serve::SimRequest;
use serde_json::Value;

/// Fragments that steer random documents into the reader's interesting
/// states (escapes, numbers, nesting, truncation), mixed with raw bytes.
const FRAGMENTS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "0",
    "-",
    "1.5e-3",
    ".",
    "e+",
    "true",
    "null",
    "\"big\"",
    "\"benchmarks\"",
    " ",
    "é",
    "\u{1F600}",
    "\u{1}",
];

/// A valid request body, the seed the request-edge fuzzer mutates.
const REQUEST: &[u8] = br#"{"benchmarks":["milc","hmmer"],"big":1,"small":1,"scheduler":"reliability","ticks":20000,"quantum":5000,"half_freq_small":false,"rob_only":false}"#;

/// Assemble a document from fragment indices; indices past the
/// fragment table stand for the raw byte `index - FRAGMENTS.len()`.
fn soup(parts: &[usize]) -> Vec<u8> {
    let mut out = Vec::new();
    for &p in parts {
        match FRAGMENTS.get(p) {
            Some(f) => out.extend_from_slice(f.as_bytes()),
            None => out.push((p - FRAGMENTS.len()) as u8),
        }
    }
    out
}

/// Flip, drop or insert bytes of `base` at the given positions.
fn mutate(base: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut out = base.to_vec();
    for &(at, op, byte) in edits {
        if out.is_empty() {
            out.push(byte);
            continue;
        }
        let at = at % out.len();
        match op % 3 {
            0 => out[at] = byte,
            1 => {
                out.remove(at);
            }
            _ => out.insert(at, byte),
        }
    }
    out
}

/// The daemon's request edge, short of the engine: HTTP framing, JSON
/// decoding, validation. Every step may fail; none may panic.
fn serve_edge(raw: &[u8]) {
    let mut stream = raw;
    if let Ok(req) = read_request(&mut stream, 64 * 1024) {
        if let Ok(sim) = serde_json::from_slice::<SimRequest>(&req.body) {
            let _ = sim.validate();
        }
    }
}

fn http_post(body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        parts in prop::collection::vec(0usize..FRAGMENTS.len() + 256, 0..64),
    ) {
        let _ = serde_json::from_slice::<Value>(&bytes);
        let doc = soup(&parts);
        if let Ok(v) = serde_json::from_slice::<Value>(&doc) {
            // Whatever the reader accepts, the writer turns into a
            // document the reader accepts.
            let again = serde_json::to_vec(&v).unwrap();
            prop_assert!(serde_json::from_slice::<Value>(&again).is_ok());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_request_edge(
        bytes in prop::collection::vec(0u8..=255, 0..512),
        parts in prop::collection::vec(0usize..FRAGMENTS.len() + 256, 0..64),
        edits in prop::collection::vec((0usize..1024, 0u8..3, 0u8..=255), 0..8),
    ) {
        serve_edge(&bytes);
        serve_edge(&http_post(&bytes));
        serve_edge(&http_post(&soup(&parts)));
        serve_edge(&http_post(&mutate(REQUEST, &edits)));
        serve_edge(&mutate(&http_post(REQUEST), &edits));
    }

    #[test]
    fn awkward_strings_round_trip(
        picks in prop::collection::vec(0usize..16, 0..48),
        wide in prop::collection::vec(0u32..0x11_0000, 0..8),
    ) {
        const AWKWARD: [char; 12] = [
            '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é',
        ];
        let mut s: String = picks
            .iter()
            .map(|&i| AWKWARD.get(i).copied().unwrap_or('\u{1F600}'))
            .collect();
        s.extend(wide.iter().filter_map(|&c| char::from_u32(c)));
        let json = serde_json::to_string(&s).unwrap();
        prop_assert!(!json.bytes().any(|b| b < 0x20), "writer left a raw control byte");
        prop_assert_eq!(&serde_json::from_str::<String>(&json).unwrap(), &s);
        // The same string as an object key.
        let obj = Value::Object(vec![(s.clone(), Value::String(s.clone()))]);
        let json = serde_json::to_vec(&obj).unwrap();
        prop_assert_eq!(serde_json::from_slice::<Value>(&json).unwrap(), obj);
    }
}

//! Input that arrives from outside the program — serve request lines, `.lg`
//! graph files and `.gu` update files — must come back as `Ok` or a typed `Err`,
//! never as a panic.  The parsers are fed random bytes, random records of their
//! own format with out-of-range and ill-typed fields, every truncation of valid
//! inputs, and valid inputs with a few bytes overwritten.

use ffsm::graph::{generators, io};
use ffsm::serve::protocol::parse_request;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn requests() -> Vec<Vec<u8>> {
    [
        "{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 2.5, \"measure\": \"MIS\", \
         \"max_edges\": 4, \"top_k\": 3, \"deadline_ms\": 250, \"bounds\": true, \"id\": 9}",
        "{\"op\": \"update\", \"graph\": \"g\", \"updates\": \"ae 0 1\\nt 1\\nre 2 3\", \"id\": 2}",
        "{\"op\": \"stat\", \"graph\": \"g\\u0041\\n\", \"id\": null}",
        "{\"op\": \"list\"}",
        "{\"op\": \"metrics\", \"id\": 4}",
        "{\"op\": \"shutdown\", \"id\": 1e0}",
    ]
    .iter()
    .map(|line| line.as_bytes().to_vec())
    .collect()
}

fn graph_files() -> Vec<Vec<u8>> {
    vec![
        io::to_lg_string(&generators::grid(3, 3, 2)).into_bytes(),
        b"# comment\nt 0\nv 0 1\nv 1 2\nv 2 1\ne 0 1 7\ne 1 2\n".to_vec(),
    ]
}

fn update_files() -> Vec<Vec<u8>> {
    vec![b"# prologue\nt 0\nav 3\nae 0 4\nt 1\nre 1 2\nrl 0 7\n\nt 2\nrv 5\n".to_vec()]
}

/// Each parser reports whether it returned `Ok`; a panic fails the test.
fn parse_request_bytes(bytes: &[u8]) -> bool {
    parse_request(&String::from_utf8_lossy(bytes)).is_ok()
}

fn read_lg_bytes(bytes: &[u8]) -> bool {
    io::read_lg(bytes).is_ok()
}

fn read_updates_bytes(bytes: &[u8]) -> bool {
    io::read_updates(bytes).is_ok()
}

/// Characters of the three formats, so random input gets past the first token.
const SYNTAX: &[u8] = b"{}\":,0123456789.-+eE tfnrualsvpxd\\\n#";

/// Random bytes: drawn from the whole byte range or from the formats' syntax.
fn random_bytes(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0usize..256);
    let syntax_only = rng.gen_bool(0.5);
    (0..len)
        .map(|_| {
            if syntax_only {
                SYNTAX[rng.gen_range(0..SYNTAX.len())]
            } else {
                rng.gen_range(0u8..=255)
            }
        })
        .collect()
}

/// `valid` with one to four bytes overwritten by random or syntax bytes.
fn flip_bytes(valid: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = if rng.gen_bool(0.5) {
            rng.gen_range(0u8..=255)
        } else {
            SYNTAX[rng.gen_range(0..SYNTAX.len())]
        };
    }
    bytes
}

/// Numbers on the formats' edges: small ids, past `u32`/`u64`, negative,
/// fractional, huge, not a number.
const NUMBERS: &[&str] =
    &["0", "1", "2", "7", "-1", "2.5", "1e300", "4294967296", "18446744073709551616", "x"];

fn number(rng: &mut StdRng) -> &'static str {
    NUMBERS[rng.gen_range(0..NUMBERS.len())]
}

/// Up to a dozen lines, each a random template with every `N` replaced by a
/// random entry of [`NUMBERS`].
fn random_records(templates: &[&str], rng: &mut StdRng) -> Vec<u8> {
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..12) {
        let template = templates[rng.gen_range(0..templates.len())];
        let words: Vec<&str> =
            template.split(' ').map(|w| if w == "N" { number(rng) } else { w }).collect();
        text.push_str(&words.join(" "));
        text.push('\n');
    }
    text.into_bytes()
}

fn random_graph_file(rng: &mut StdRng) -> Vec<u8> {
    random_records(&["v N N", "e N N", "e N N N", "t N", "# N", "v N", "e N", "q N"], rng)
}

fn random_update_file(rng: &mut StdRng) -> Vec<u8> {
    let templates = ["av N", "rv N", "ae N N", "re N N", "rl N N", "t N", "t", "ae N", "rl N N N"];
    random_records(&templates, rng)
}

/// A flat JSON object: one of the six ops, then each known field with
/// probability 3/4.  A field's value has the field's type with probability 3/4
/// and is otherwise any literal, string or entry of [`NUMBERS`], so every
/// field's type and range check runs behind otherwise valid fields.
fn random_request(rng: &mut StdRng) -> Vec<u8> {
    const OPS: &[&str] = &["mine", "update", "list", "stat", "metrics", "shutdown"];
    const FIELDS: &[(&str, &str)] = &[
        ("graph", "\"g\""),
        ("tau", "2"),
        ("measure", "\"mis\""),
        ("max_edges", "2"),
        ("top_k", "3"),
        ("deadline_ms", "50"),
        ("bounds", "true"),
        ("updates", "\"ae 0 1\\nt 1\\nrv 2\""),
        ("id", "7"),
    ];
    const ANY: &[&str] = &["\"g\"", "\"\"", "\"ae 0\"", "true", "null", "\"mine\""];
    let op = OPS[rng.gen_range(0..OPS.len())];
    let mut pairs = vec![format!("\"op\": \"{op}\"")];
    for &(key, typed) in FIELDS {
        if rng.gen_bool(0.25) {
            continue;
        }
        let value = if rng.gen_bool(0.75) {
            typed
        } else if rng.gen_bool(0.5) {
            ANY[rng.gen_range(0..ANY.len())]
        } else {
            number(rng)
        };
        pairs.push(format!("\"{key}\": {value}"));
    }
    format!("{{{}}}", pairs.join(", ")).into_bytes()
}

/// Random bytes, eight random inputs from `structured`, then one corrupted copy
/// of every valid input, through `parse`.
fn feed_corrupted(
    seed: u64,
    valid: &[Vec<u8>],
    structured: fn(&mut StdRng) -> Vec<u8>,
    parse: fn(&[u8]) -> bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    parse(&random_bytes(&mut rng));
    for _ in 0..8 {
        parse(&structured(&mut rng));
    }
    for input in valid {
        parse(&flip_bytes(input, &mut rng));
    }
}

#[test]
fn every_truncation_of_valid_input_is_ok_or_err() {
    for (valid, parse) in [
        (requests(), parse_request_bytes as fn(&[u8]) -> bool),
        (graph_files(), read_lg_bytes),
        (update_files(), read_updates_bytes),
    ] {
        for input in &valid {
            assert!(parse(input), "{}", String::from_utf8_lossy(input));
            for cut in 0..input.len() {
                parse(&input[..cut]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_request_never_panics(seed in 0u64..u64::MAX) {
        feed_corrupted(seed, &requests(), random_request, parse_request_bytes);
    }

    #[test]
    fn read_lg_never_panics(seed in 0u64..u64::MAX) {
        feed_corrupted(seed, &graph_files(), random_graph_file, read_lg_bytes);
    }

    #[test]
    fn read_updates_never_panics(seed in 0u64..u64::MAX) {
        feed_corrupted(seed, &update_files(), random_update_file, read_updates_bytes);
    }
}

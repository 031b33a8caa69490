//! Request side of the NDJSON-over-TCP wire protocol.
//!
//! A client sends one JSON object per line; the server answers each request
//! with a stream of event frames (see [`crate::events`]) terminated by exactly
//! one `done` frame, in request order per connection.  Requests are *flat*
//! objects — every value is a string, number, boolean or null — which keeps the
//! no-dependency parser here small and the protocol trivially generatable from
//! any language (`printf` is a compliant client).
//!
//! ## Operations
//!
//! | `op`       | fields                                                                    |
//! |------------|---------------------------------------------------------------------------|
//! | `mine`     | `graph`, `tau`; optional `measure`, `max_edges`, `top_k`, `deadline_ms`,  |
//! |            | `bounds` (boolean: bounds-first certified intervals)                      |
//! | `update`   | `graph`, `updates` (`.gu`-format text, `t` lines separate batches)        |
//! | `list`     | —                                                                         |
//! | `stat`     | optional `graph` (omitted: server-level statistics)                       |
//! | `metrics`  | — (scrape the server's metrics registry: one `metric` frame per metric)   |
//! | `shutdown` | — (begin graceful drain)                                                  |
//!
//! Every request may carry a numeric `id`, echoed verbatim in the request's
//! `error` and `done` frames so clients can correlate.  Malformed requests are
//! typed [`FfsmError::Protocol`] errors — the connection survives them.

use ffsm_core::{FfsmError, MeasureKind};
use ffsm_graph::{io, GraphUpdate};

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, the wire format's only numeric type).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
}

/// Parameters of one `mine` request.
#[derive(Debug, Clone)]
pub struct MineParams {
    /// Registered graph to mine.
    pub graph: String,
    /// Support threshold τ.
    pub tau: f64,
    /// Support measure (default MNI, like the CLI).
    pub measure: MeasureKind,
    /// Pattern-growth cap in edges (default 3, like the CLI).
    pub max_edges: usize,
    /// `Some(k)`: top-k mode with τ as the floor threshold.
    pub top_k: Option<usize>,
    /// Per-request wall-clock deadline; the server maps it onto the session's
    /// `CancelToken`.  `None` falls back to the server's default deadline.
    pub deadline_ms: Option<u64>,
    /// Bounds-first mode ([`ffsm_miner::MiningSession::bounds_first`]):
    /// `pattern` frames gain certified `support_lo`/`support_hi`/`certificate`
    /// fields, and an interrupted session emits one `undecided` frame per
    /// still-pending candidate.
    pub bounds: bool,
}

/// One decoded request operation.
#[derive(Debug, Clone)]
pub enum Request {
    /// Mine a registered graph's current epoch.
    Mine(MineParams),
    /// Apply update batches to a registered graph (one committed epoch each).
    Update {
        /// Registered graph to update.
        graph: String,
        /// Parsed batches, in application order.
        batches: Vec<Vec<GraphUpdate>>,
    },
    /// Enumerate the registered graphs.
    List,
    /// Statistics for one graph, or for the server when `graph` is `None`.
    Stat {
        /// The graph to describe, `None` for server-level statistics.
        graph: Option<String>,
    },
    /// Scrape the server's metrics registry: counters, gauges and latency
    /// histograms, one flat `metric` frame each.
    Metrics,
    /// Begin graceful drain: stop admissions, cancel in-flight sessions, flush.
    Shutdown,
}

/// A request together with its optional correlation id.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Client-chosen id echoed in the request's `error`/`done` frames.
    pub id: Option<u64>,
    /// The decoded operation.
    pub request: Request,
}

fn protocol_err(message: impl Into<String>) -> FfsmError {
    FfsmError::Protocol(message.into())
}

/// Parse one flat JSON object into `(key, value)` pairs in document order.
/// Nested objects and arrays are rejected — the protocol has no use for them
/// and refusing keeps the parser honest about what it accepts.
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, FfsmError> {
    let mut chars = line.char_indices().peekable();
    let mut pairs = Vec::new();

    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        finish_line(&mut chars)?;
        return Ok(pairs);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = parse_value(&mut chars, line)?;
        pairs.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            Some((at, c)) => {
                return Err(protocol_err(format!("expected ',' or '}}' at byte {at}, got {c:?}")))
            }
            None => return Err(protocol_err("unterminated object")),
        }
    }
    finish_line(&mut chars)?;
    Ok(pairs)
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars) {
    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut Chars, want: char) -> Result<(), FfsmError> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        Some((at, c)) => Err(protocol_err(format!("expected {want:?} at byte {at}, got {c:?}"))),
        None => Err(protocol_err(format!("expected {want:?}, got end of line"))),
    }
}

fn finish_line(chars: &mut Chars) -> Result<(), FfsmError> {
    skip_ws(chars);
    match chars.next() {
        None => Ok(()),
        Some((at, c)) => Err(protocol_err(format!("trailing content at byte {at}: {c:?}"))),
    }
}

fn parse_string(chars: &mut Chars) -> Result<String, FfsmError> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let digit = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or_else(|| protocol_err("bad \\u escape"))?;
                        code = code * 16 + digit;
                    }
                    // Surrogates are rejected rather than paired: the protocol's
                    // strings are graph names and `.gu`/`.lg` text, all ASCII.
                    let c = char::from_u32(code)
                        .ok_or_else(|| protocol_err("\\u escape is not a scalar value"))?;
                    out.push(c);
                }
                Some((at, c)) => {
                    return Err(protocol_err(format!("unknown escape \\{c} at byte {at}")))
                }
                None => return Err(protocol_err("unterminated string escape")),
            },
            Some((_, c)) if (c as u32) >= 0x20 => out.push(c),
            Some((at, _)) => {
                return Err(protocol_err(format!("raw control character in string at byte {at}")))
            }
            None => return Err(protocol_err("unterminated string")),
        }
    }
}

fn parse_value(chars: &mut Chars, line: &str) -> Result<JsonValue, FfsmError> {
    match chars.peek().copied() {
        Some((_, '"')) => Ok(JsonValue::String(parse_string(chars)?)),
        Some((_, '{')) | Some((_, '[')) => {
            Err(protocol_err("nested objects/arrays are not part of the protocol"))
        }
        Some((_, 't')) => keyword(chars, "true").map(|()| JsonValue::Bool(true)),
        Some((_, 'f')) => keyword(chars, "false").map(|()| JsonValue::Bool(false)),
        Some((_, 'n')) => keyword(chars, "null").map(|()| JsonValue::Null),
        Some((start, c)) if c == '-' || c.is_ascii_digit() => {
            let mut end = start;
            while let Some(&(at, c)) = chars.peek() {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    end = at + c.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let text = &line[start..end];
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .map(JsonValue::Number)
                .ok_or_else(|| protocol_err(format!("bad number {text:?}")))
        }
        Some((at, c)) => Err(protocol_err(format!("unexpected value start {c:?} at byte {at}"))),
        None => Err(protocol_err("expected a value, got end of line")),
    }
}

fn keyword(chars: &mut Chars, word: &str) -> Result<(), FfsmError> {
    for want in word.chars() {
        match chars.next() {
            Some((_, c)) if c == want => {}
            _ => return Err(protocol_err(format!("bad literal (expected {word:?})"))),
        }
    }
    Ok(())
}

/// Typed accessors over the parsed pairs, with errors naming the field.
struct Fields {
    pairs: Vec<(String, JsonValue)>,
}

impl Fields {
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn string(&self, key: &str) -> Result<Option<&str>, FfsmError> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::String(s)) => Ok(Some(s)),
            Some(other) => {
                Err(protocol_err(format!("field {key:?} must be a string, got {other:?}")))
            }
        }
    }

    fn required_string(&self, key: &str) -> Result<&str, FfsmError> {
        self.string(key)?.ok_or_else(|| protocol_err(format!("missing field {key:?}")))
    }

    fn number(&self, key: &str) -> Result<Option<f64>, FfsmError> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::Number(n)) => Ok(Some(*n)),
            Some(other) => {
                Err(protocol_err(format!("field {key:?} must be a number, got {other:?}")))
            }
        }
    }

    fn unsigned(&self, key: &str) -> Result<Option<u64>, FfsmError> {
        match self.number(key)? {
            None => Ok(None),
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Ok(Some(n as u64)),
            Some(n) => {
                Err(protocol_err(format!("field {key:?} must be a non-negative integer, got {n}")))
            }
        }
    }

    fn boolean(&self, key: &str) -> Result<Option<bool>, FfsmError> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::Bool(b)) => Ok(Some(*b)),
            Some(other) => {
                Err(protocol_err(format!("field {key:?} must be a boolean, got {other:?}")))
            }
        }
    }
}

/// Parse one request line into its [`Envelope`].
///
/// # Errors
///
/// [`FfsmError::Protocol`] for malformed JSON, an unknown `op` or a missing /
/// ill-typed field; [`FfsmError::UnknownMeasure`] for a bad `measure` name;
/// [`FfsmError::Graph`] when an `update` request's `.gu` payload does not parse.
pub fn parse_request(line: &str) -> Result<Envelope, FfsmError> {
    let fields = Fields { pairs: parse_object(line)? };
    let id = fields.unsigned("id")?;
    let op = fields.required_string("op")?;
    let request = match op {
        "mine" => {
            let graph = fields.required_string("graph")?.to_string();
            let tau = fields
                .number("tau")?
                .ok_or_else(|| protocol_err("mine requires a numeric \"tau\""))?;
            let measure = match fields.string("measure")? {
                Some(name) => name.parse::<MeasureKind>()?,
                None => MeasureKind::Mni,
            };
            let max_edges = fields.unsigned("max_edges")?.unwrap_or(3) as usize;
            let top_k = fields.unsigned("top_k")?.map(|k| k as usize);
            let deadline_ms = fields.unsigned("deadline_ms")?;
            let bounds = fields.boolean("bounds")?.unwrap_or(false);
            Request::Mine(MineParams { graph, tau, measure, max_edges, top_k, deadline_ms, bounds })
        }
        "update" => {
            let graph = fields.required_string("graph")?.to_string();
            let text = fields.required_string("updates")?;
            let batches = io::updates_from_string(text).map_err(FfsmError::Graph)?;
            if batches.is_empty() {
                return Err(protocol_err("update carries no updates"));
            }
            Request::Update { graph, batches }
        }
        "list" => Request::List,
        "stat" => Request::Stat { graph: fields.string("graph")?.map(str::to_string) },
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(protocol_err(format!(
                "unknown op {other:?} (expected mine, update, list, stat, metrics or shutdown)"
            )))
        }
    };
    Ok(Envelope { id, request })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_mine_request() {
        let env = parse_request(
            "{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 2.5, \"measure\": \"MIS\", \
             \"max_edges\": 4, \"deadline_ms\": 250, \"bounds\": true, \"id\": 9}",
        )
        .unwrap();
        assert_eq!(env.id, Some(9));
        let Request::Mine(p) = env.request else { panic!("expected mine") };
        assert_eq!(p.graph, "g");
        assert_eq!(p.tau, 2.5);
        assert_eq!(p.measure, MeasureKind::Mis);
        assert_eq!(p.max_edges, 4);
        assert_eq!(p.top_k, None);
        assert_eq!(p.deadline_ms, Some(250));
        assert!(p.bounds);
    }

    #[test]
    fn mine_defaults_match_the_cli() {
        let Request::Mine(p) =
            parse_request("{\"op\":\"mine\",\"graph\":\"g\",\"tau\":2}").unwrap().request
        else {
            panic!("expected mine")
        };
        assert_eq!(p.measure, MeasureKind::Mni);
        assert_eq!(p.max_edges, 3);
        assert_eq!(p.deadline_ms, None);
        assert!(!p.bounds);
    }

    #[test]
    fn update_parses_gu_batches() {
        let env = parse_request(
            "{\"op\": \"update\", \"graph\": \"g\", \"updates\": \"ae 0 1\\nt 1\\nre 2 3\"}",
        )
        .unwrap();
        let Request::Update { graph, batches } = env.request else { panic!("expected update") };
        assert_eq!(graph, "g");
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], vec![GraphUpdate::AddEdge(0, 1)]);
        assert_eq!(batches[1], vec![GraphUpdate::RemoveEdge(2, 3)]);
    }

    #[test]
    fn list_stat_shutdown_round_trip() {
        assert!(matches!(parse_request("{\"op\": \"list\"}").unwrap().request, Request::List));
        assert!(matches!(
            parse_request("{\"op\": \"stat\"}").unwrap().request,
            Request::Stat { graph: None }
        ));
        let Request::Stat { graph } =
            parse_request("{\"op\": \"stat\", \"graph\": \"g\"}").unwrap().request
        else {
            panic!("expected stat")
        };
        assert_eq!(graph.as_deref(), Some("g"));
        assert!(matches!(
            parse_request("{\"op\": \"metrics\", \"id\": 4}").unwrap().request,
            Request::Metrics
        ));
        assert!(matches!(
            parse_request("{\"op\": \"shutdown\", \"id\": 1}").unwrap().request,
            Request::Shutdown
        ));
    }

    #[test]
    fn malformed_requests_are_typed_protocol_errors() {
        for bad in [
            "",
            "not json",
            "{\"op\": \"mine\"}",                           // missing graph
            "{\"op\": \"mine\", \"graph\": \"g\"}",         // missing tau
            "{\"op\": \"mine\", \"graph\": 3, \"tau\": 1}", // ill-typed graph
            "{\"op\": \"nope\"}",                           // unknown op
            "{\"graph\": \"g\"}",                           // missing op
            "{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 1} trailing",
            "{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 1, \"top_k\": -2}",
            "{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 1, \"bounds\": 1}", // ill-typed flag
            "{\"op\": [1]}",                                                   // nested value
            "{\"op\": \"update\", \"graph\": \"g\", \"updates\": \"\"}",       // empty batch
            "{\"op\": \"partition\", \"graph\": \"g\", \"shards\": 2}",        // unknown op
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(matches!(err, FfsmError::Protocol(_)), "{bad:?} -> {err:?}");
        }
        let err = parse_request("{\"op\": \"nope\"}").unwrap_err().to_string();
        assert!(err.contains("expected mine, update, list, stat, metrics or shutdown"), "{err}");
        assert!(!err.contains("partition"), "{err}");
        // Errors below the protocol layer keep their own types.
        let err =
            parse_request("{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 1, \"measure\": \"XX\"}")
                .unwrap_err();
        assert!(matches!(err, FfsmError::UnknownMeasure(_)));
        let err = parse_request("{\"op\": \"update\", \"graph\": \"g\", \"updates\": \"zz 1\"}")
            .unwrap_err();
        assert!(matches!(err, FfsmError::Graph(_)));
    }

    #[test]
    fn parser_handles_escapes_and_whitespace() {
        let pairs =
            parse_object("  { \"a\" : \"x\\ty\\u0041\" , \"b\" : true , \"c\" : null }  ").unwrap();
        assert_eq!(pairs[0].1, JsonValue::String("x\tyA".into()));
        assert_eq!(pairs[1].1, JsonValue::Bool(true));
        assert_eq!(pairs[2].1, JsonValue::Null);
        assert_eq!(parse_object("{}").unwrap(), vec![]);
    }
}

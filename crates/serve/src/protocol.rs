//! Request/response mapping between wire [`Value`]s and engine calls.
//!
//! ## Grammar (one request per line, one response per line)
//!
//! ```text
//! request  := { "cmd": <cmd>, ...fields }
//! cmd      := "load" | "append" | "motifs" | "sets" | "discords"
//!           | "stats" | "ping" | "sleep" | "save" | "shutdown" | "hello"
//!
//! load     := name, values: [f64...], hot?: [usize...], replace?: bool
//! append   := name, values: [f64...]
//! motifs   := name, min, max, top? (5), p? (50), excl? ("1/2"), deadline_ms?
//! sets     := name, min, max, k? (10), radius? (3.0), p?, excl?, deadline_ms?
//! discords := name, min, max, top? (3), p?, excl?, deadline_ms?
//! sleep    := ms, deadline_ms?          (diagnostics: occupies a worker)
//! hello    := version, capabilities?: [str...]   (version/capability handshake)
//! save     := no fields                 (flush snapshots; 0 when not durable)
//! stats / ping / shutdown := no fields
//!
//! response := { "ok": true, "cached"?: bool, "coalesced"?: true, "result": <payload> }
//!           | { "ok": false, "error": { "kind": <kind>, "message": <str> } }
//! ```
//!
//! Unknown *request* fields are rejected (typo safety, mirroring the CLI
//! parser); unknown *response* fields are tolerated, so additive markers
//! like `"coalesced"` do not bump the protocol version.

use std::time::Duration;

use valmod_mp::ExclusionPolicy;

use crate::engine::{QueryKind, QuerySpec};
use crate::error::{ServeError, ServeResult};
use crate::value::Value;

/// The protocol version this build speaks. Bumped on any wire-incompatible
/// change; the `hello` handshake lets a peer discover a mismatch *before* a
/// mid-job parse failure.
pub const PROTOCOL_VERSION: u64 = 1;

/// Longest accepted `sleep` — the diagnostic occupies a real worker thread,
/// so an unbounded `ms` is a one-request denial of service.
pub const MAX_SLEEP_MS: u64 = 60_000;

/// Longest accepted `deadline_ms` (24 h). Anything larger is a client bug or
/// a hostile value, not a plausible deadline.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Load (or replace) a named series.
    Load {
        /// Series name.
        name: String,
        /// Samples.
        values: Vec<f64>,
        /// Lengths to keep live streaming profiles at.
        hot: Vec<usize>,
        /// Overwrite an existing series of the same name.
        replace: bool,
    },
    /// Append samples to a named series.
    Append {
        /// Series name.
        name: String,
        /// Samples to append.
        values: Vec<f64>,
    },
    /// A motif/sets/discords query.
    Query(QuerySpec),
    /// Engine statistics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Diagnostics: occupy a worker thread.
    Sleep {
        /// Milliseconds to sleep.
        ms: u64,
        /// Optional deadline.
        deadline: Option<Duration>,
    },
    /// Flush every series to a fresh snapshot (durable engines).
    Save,
    /// Graceful shutdown.
    Shutdown,
    /// Version/capability handshake: the peer announces what it speaks, the
    /// server answers with its own version and capability list.
    Hello {
        /// Protocol version the peer speaks.
        version: u64,
        /// Capability strings the peer offers (informational).
        capabilities: Vec<String>,
    },
}

impl Request {
    /// The stable wire name of this command (the `"cmd"` field), used to key
    /// per-command metrics.
    pub fn cmd_name(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::Append { .. } => "append",
            Request::Query(spec) => match spec.kind {
                QueryKind::Motifs { .. } => "motifs",
                QueryKind::Sets { .. } => "sets",
                QueryKind::Discords { .. } => "discords",
            },
            Request::Stats => "stats",
            Request::Ping => "ping",
            Request::Sleep { .. } => "sleep",
            Request::Save => "save",
            Request::Shutdown => "shutdown",
            Request::Hello { .. } => "hello",
        }
    }
    /// Parses one request tree.
    pub fn from_value(v: &Value) -> ServeResult<Request> {
        let fields = match v {
            Value::Obj(fields) => fields,
            _ => return Err(ServeError::Protocol("request must be an object".into())),
        };
        let cmd = require_str(v, "cmd")?;
        let known: &[&str] = match cmd {
            "load" => &["cmd", "name", "values", "hot", "replace"],
            "append" => &["cmd", "name", "values"],
            "motifs" => &["cmd", "name", "min", "max", "top", "p", "excl", "deadline_ms"],
            "sets" => &["cmd", "name", "min", "max", "k", "radius", "p", "excl", "deadline_ms"],
            "discords" => &["cmd", "name", "min", "max", "top", "p", "excl", "deadline_ms"],
            "sleep" => &["cmd", "ms", "deadline_ms"],
            "hello" => &["cmd", "version", "capabilities"],
            "stats" | "ping" | "save" | "shutdown" => &["cmd"],
            other => return Err(ServeError::Protocol(format!("unknown command {other:?}"))),
        };
        for (k, _) in fields {
            if !known.contains(&k.as_str()) {
                return Err(ServeError::Protocol(format!("unknown field {k:?} for {cmd:?}")));
            }
        }
        match cmd {
            "load" => Ok(Request::Load {
                name: require_str(v, "name")?.to_string(),
                values: samples(v, "values")?,
                hot: match v.get("hot") {
                    None => Vec::new(),
                    Some(h) => usize_list(h, "hot")?,
                },
                replace: opt_bool(v, "replace")?.unwrap_or(false),
            }),
            "append" => Ok(Request::Append {
                name: require_str(v, "name")?.to_string(),
                values: samples(v, "values")?,
            }),
            "motifs" | "sets" | "discords" => {
                let kind = match cmd {
                    "motifs" => QueryKind::Motifs { top: opt_usize(v, "top")?.unwrap_or(5) },
                    "discords" => QueryKind::Discords { top: opt_usize(v, "top")?.unwrap_or(3) },
                    _ => QueryKind::Sets {
                        k: opt_usize(v, "k")?.unwrap_or(10),
                        radius: match v.get("radius") {
                            None => 3.0,
                            Some(r) => r
                                .as_f64()
                                .filter(|r| r.is_finite() && *r > 0.0)
                                .ok_or_else(|| bad_field("radius", "a positive number"))?,
                        },
                    },
                };
                Ok(Request::Query(QuerySpec {
                    series: require_str(v, "name")?.to_string(),
                    kind,
                    l_min: require_usize(v, "min")?,
                    l_max: require_usize(v, "max")?,
                    p: opt_usize(v, "p")?.unwrap_or(50),
                    policy: match v.get("excl") {
                        None => ExclusionPolicy::HALF,
                        Some(e) => parse_policy(
                            e.as_str().ok_or_else(|| bad_field("excl", "a \"num/den\" string"))?,
                        )?,
                    },
                    deadline: deadline_ms(v)?,
                }))
            }
            "sleep" => Ok(Request::Sleep {
                ms: require_u64_capped(v, "ms", MAX_SLEEP_MS)?,
                deadline: deadline_ms(v)?,
            }),
            "hello" => Ok(Request::Hello {
                version: require_u64_capped(v, "version", u64::MAX)?,
                capabilities: match v.get("capabilities") {
                    None => Vec::new(),
                    Some(c) => string_list(c, "capabilities")?,
                },
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "save" => Ok(Request::Save),
            "shutdown" => Ok(Request::Shutdown),
            _ => unreachable!("cmd already validated"),
        }
    }

    /// Encodes this request as a wire tree (used by the client side).
    pub fn to_value(&self) -> Value {
        match self {
            Request::Load { name, values, hot, replace } => {
                let mut fields = vec![
                    ("cmd", Value::str("load")),
                    ("name", Value::str(name)),
                    ("values", Value::Arr(values.iter().map(|&x| Value::Num(x)).collect())),
                ];
                if !hot.is_empty() {
                    fields.push(("hot", Value::Arr(hot.iter().map(|&l| Value::from(l)).collect())));
                }
                if *replace {
                    fields.push(("replace", Value::Bool(true)));
                }
                Value::obj(fields)
            }
            Request::Append { name, values } => Value::obj(vec![
                ("cmd", Value::str("append")),
                ("name", Value::str(name)),
                ("values", Value::Arr(values.iter().map(|&x| Value::Num(x)).collect())),
            ]),
            Request::Query(spec) => {
                let (cmd, extra): (&str, Vec<(&str, Value)>) = match spec.kind {
                    QueryKind::Motifs { top } => ("motifs", vec![("top", top.into())]),
                    QueryKind::Discords { top } => ("discords", vec![("top", top.into())]),
                    QueryKind::Sets { k, radius } => {
                        ("sets", vec![("k", k.into()), ("radius", radius.into())])
                    }
                };
                let mut fields = vec![
                    ("cmd", Value::str(cmd)),
                    ("name", Value::str(&spec.series)),
                    ("min", spec.l_min.into()),
                    ("max", spec.l_max.into()),
                    ("p", spec.p.into()),
                ];
                fields.extend(extra);
                let pol = spec.policy.reduced();
                if pol != ExclusionPolicy::HALF {
                    fields.push(("excl", Value::str(format!("{}/{}", pol.num(), pol.den()))));
                }
                if let Some(d) = spec.deadline {
                    fields.push(("deadline_ms", encode_millis(d)));
                }
                Value::obj(fields)
            }
            Request::Sleep { ms, deadline } => {
                let mut fields = vec![("cmd", Value::str("sleep")), ("ms", (*ms).into())];
                if let Some(d) = deadline {
                    fields.push(("deadline_ms", encode_millis(*d)));
                }
                Value::obj(fields)
            }
            Request::Stats => Value::obj(vec![("cmd", Value::str("stats"))]),
            Request::Ping => Value::obj(vec![("cmd", Value::str("ping"))]),
            Request::Save => Value::obj(vec![("cmd", Value::str("save"))]),
            Request::Shutdown => Value::obj(vec![("cmd", Value::str("shutdown"))]),
            Request::Hello { version, capabilities } => Value::obj(vec![
                ("cmd", Value::str("hello")),
                ("version", (*version).into()),
                ("capabilities", Value::Arr(capabilities.iter().map(Value::str).collect())),
            ]),
        }
    }
}

/// The server-side payload answering a `hello`: this build's protocol
/// version and capability strings.
pub fn hello_result(capabilities: &[&str]) -> Value {
    Value::obj(vec![
        ("version", PROTOCOL_VERSION.into()),
        ("capabilities", Value::Arr(capabilities.iter().map(|c| Value::str(*c)).collect())),
    ])
}

/// Decodes a `hello` response payload into `(version, capabilities)` and
/// rejects a version mismatch with a clean error naming both sides.
pub fn check_hello(result: &Value) -> ServeResult<(u64, Vec<String>)> {
    let version = result
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServeError::Protocol("hello response missing \"version\"".into()))?;
    let capabilities = match result.get("capabilities") {
        None => Vec::new(),
        Some(c) => string_list(c, "capabilities")?,
    };
    if version != PROTOCOL_VERSION {
        return Err(ServeError::Protocol(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{PROTOCOL_VERSION}"
        )));
    }
    Ok((version, capabilities))
}

/// Builds a success response line.
pub fn response_ok(result: Value, cached: Option<bool>) -> Value {
    response_query(result, cached, false)
}

/// Builds a success response line for a query, carrying the coalescing
/// marker when set (`"coalesced"` is additive: absent means `false`).
pub fn response_query(result: Value, cached: Option<bool>, coalesced: bool) -> Value {
    let mut fields = vec![("ok", Value::Bool(true))];
    if let Some(c) = cached {
        fields.push(("cached", Value::Bool(c)));
    }
    if coalesced {
        fields.push(("coalesced", Value::Bool(true)));
    }
    fields.push(("result", result));
    Value::obj(fields)
}

/// Builds an error response line.
pub fn response_err(err: &ServeError) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::obj(vec![
                ("kind", Value::str(err.kind())),
                ("message", Value::str(err.to_string())),
            ]),
        ),
    ])
}

/// A decoded response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// The `"result"` payload of a successful response.
    pub result: Value,
    /// The `"cached"` marker, when the command reports one.
    pub cached: Option<bool>,
    /// The `"coalesced"` marker: this reply rode another request's
    /// in-flight compute. Absent on the wire means `false`.
    pub coalesced: bool,
}

impl Response {
    /// Decodes a response tree, turning `ok: false` back into the
    /// matching [`ServeError`] variant by its stable `kind` string, with
    /// a [`ServeError::Protocol`] fallback carrying kind and message.
    pub fn from_value(v: &Value) -> ServeResult<Response> {
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(Response {
                result: v.get("result").cloned().unwrap_or(Value::Null),
                cached: v.get("cached").and_then(Value::as_bool),
                coalesced: v.get("coalesced").and_then(Value::as_bool).unwrap_or(false),
            }),
            Some(false) => {
                let kind = v
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Value::as_str)
                    .unwrap_or("unknown");
                let message = v
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str)
                    .unwrap_or("");
                Err(match kind {
                    "busy" => ServeError::Busy,
                    "deadline" => ServeError::DeadlineExceeded,
                    "shutting_down" => ServeError::ShuttingDown,
                    "unknown_series" => ServeError::UnknownSeries(message.to_string()),
                    "series_exists" => ServeError::SeriesExists(message.to_string()),
                    "invalid_parameter" => ServeError::InvalidParameter(message.to_string()),
                    "internal" => ServeError::Internal(message.to_string()),
                    _ => ServeError::Protocol(format!("server error [{kind}]: {message}")),
                })
            }
            None => Err(ServeError::Protocol("response missing \"ok\" field".into())),
        }
    }
}

fn bad_field(key: &str, expected: &str) -> ServeError {
    ServeError::Protocol(format!("field {key:?} must be {expected}"))
}

fn require_str<'a>(v: &'a Value, key: &str) -> ServeResult<&'a str> {
    v.get(key).and_then(Value::as_str).ok_or_else(|| bad_field(key, "a string"))
}

fn require_usize(v: &Value, key: &str) -> ServeResult<usize> {
    v.get(key).and_then(Value::as_usize).ok_or_else(|| bad_field(key, "a non-negative integer"))
}

fn opt_usize(v: &Value, key: &str) -> ServeResult<Option<usize>> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_usize().map(Some).ok_or_else(|| bad_field(key, "a non-negative integer")),
    }
}

fn opt_bool(v: &Value, key: &str) -> ServeResult<Option<bool>> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x.as_bool().map(Some).ok_or_else(|| bad_field(key, "a boolean")),
    }
}

fn samples(v: &Value, key: &str) -> ServeResult<Vec<f64>> {
    let arr = v.get(key).and_then(Value::as_arr).ok_or_else(|| bad_field(key, "an array"))?;
    arr.iter()
        .map(|x| x.as_f64().filter(|f| f.is_finite()))
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| bad_field(key, "an array of finite numbers"))
}

fn string_list(v: &Value, key: &str) -> ServeResult<Vec<String>> {
    let arr = v.as_arr().ok_or_else(|| bad_field(key, "an array"))?;
    arr.iter()
        .map(|x| x.as_str().map(str::to_string))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| bad_field(key, "an array of strings"))
}

fn usize_list(v: &Value, key: &str) -> ServeResult<Vec<usize>> {
    let arr = v.as_arr().ok_or_else(|| bad_field(key, "an array"))?;
    arr.iter()
        .map(Value::as_usize)
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| bad_field(key, "an array of non-negative integers"))
}

fn require_u64_capped(v: &Value, key: &str, max: u64) -> ServeResult<u64> {
    let x = v
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad_field(key, "a non-negative integer"))?;
    if x > max {
        return Err(ServeError::Protocol(format!("field {key:?} exceeds the maximum of {max}")));
    }
    Ok(x)
}

fn deadline_ms(v: &Value) -> ServeResult<Option<Duration>> {
    match v.get("deadline_ms") {
        None => Ok(None),
        Some(_) => {
            Ok(Some(Duration::from_millis(require_u64_capped(v, "deadline_ms", MAX_DEADLINE_MS)?)))
        }
    }
}

/// Encodes a duration in wire milliseconds. `Duration::as_millis` is `u128`,
/// so a plain `as u64` cast would silently truncate `Duration::MAX`;
/// saturate at the protocol cap instead.
fn encode_millis(d: Duration) -> Value {
    Value::from(u64::try_from(d.as_millis()).unwrap_or(u64::MAX).min(MAX_DEADLINE_MS))
}

fn parse_policy(s: &str) -> ServeResult<ExclusionPolicy> {
    let (num, den) = s
        .split_once('/')
        .and_then(|(n, d)| Some((n.trim().parse().ok()?, d.trim().parse().ok()?)))
        .filter(|&(_, d): &(usize, usize)| d > 0)
        .ok_or_else(|| bad_field("excl", "\"num/den\" with den > 0"))?;
    Ok(ExclusionPolicy::new(num, den))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> ServeResult<Request> {
        Request::from_value(&Value::parse(line).unwrap())
    }

    #[test]
    fn parses_every_command() {
        assert!(matches!(
            parse(r#"{"cmd":"load","name":"s","values":[1,2,3],"hot":[16],"replace":true}"#),
            Ok(Request::Load { replace: true, .. })
        ));
        assert!(matches!(
            parse(r#"{"cmd":"append","name":"s","values":[4.5]}"#),
            Ok(Request::Append { .. })
        ));
        let q = parse(r#"{"cmd":"motifs","name":"s","min":16,"max":32,"top":2,"deadline_ms":500}"#)
            .unwrap();
        let Request::Query(spec) = q else { panic!("expected query") };
        assert!(matches!(spec.kind, QueryKind::Motifs { top: 2 }));
        assert_eq!((spec.l_min, spec.l_max, spec.p), (16, 32, 50));
        assert_eq!(spec.deadline, Some(Duration::from_millis(500)));
        assert!(matches!(
            parse(r#"{"cmd":"sets","name":"s","min":16,"max":32,"k":4,"radius":2.5}"#),
            Ok(Request::Query(QuerySpec { kind: QueryKind::Sets { k: 4, .. }, .. }))
        ));
        assert!(matches!(
            parse(r#"{"cmd":"discords","name":"s","min":16,"max":32}"#),
            Ok(Request::Query(QuerySpec { kind: QueryKind::Discords { top: 3 }, .. }))
        ));
        assert!(matches!(parse(r#"{"cmd":"stats"}"#), Ok(Request::Stats)));
        assert!(matches!(parse(r#"{"cmd":"ping"}"#), Ok(Request::Ping)));
        assert!(matches!(parse(r#"{"cmd":"sleep","ms":5}"#), Ok(Request::Sleep { ms: 5, .. })));
        assert!(matches!(parse(r#"{"cmd":"save"}"#), Ok(Request::Save)));
        assert!(matches!(parse(r#"{"cmd":"shutdown"}"#), Ok(Request::Shutdown)));
    }

    #[test]
    fn hello_parses_roundtrips_and_negotiates() {
        let req = parse(r#"{"cmd":"hello","version":1,"capabilities":["serve"]}"#).unwrap();
        let Request::Hello { version, ref capabilities } = req else { panic!("expected hello") };
        assert_eq!(version, 1);
        assert_eq!(capabilities, &["serve".to_string()]);
        assert_eq!(req.cmd_name(), "hello");
        let rereq = Request::from_value(&req.to_value()).unwrap();
        assert_eq!(format!("{req:?}"), format!("{rereq:?}"));
        // capabilities is optional; non-string capabilities are rejected.
        assert!(matches!(parse(r#"{"cmd":"hello","version":3}"#), Ok(Request::Hello { .. })));
        assert!(parse(r#"{"cmd":"hello","version":1,"capabilities":[2]}"#).is_err());
        assert!(parse(r#"{"cmd":"hello"}"#).is_err());

        // A matching version passes negotiation, a mismatch is a clean error.
        let (v, caps) = check_hello(&hello_result(&["serve", "cluster"])).unwrap();
        assert_eq!(v, PROTOCOL_VERSION);
        assert_eq!(caps, vec!["serve".to_string(), "cluster".to_string()]);
        let stale = Value::obj(vec![("version", (PROTOCOL_VERSION + 1).into())]);
        let err = check_hello(&stale).unwrap_err();
        assert!(err.to_string().contains("version mismatch"), "{err}");
        assert!(check_hello(&Value::obj(vec![])).is_err());
    }

    #[test]
    fn excl_policy_parses() {
        let Request::Query(spec) =
            parse(r#"{"cmd":"motifs","name":"s","min":8,"max":9,"excl":"1/4"}"#).unwrap()
        else {
            panic!("expected query")
        };
        assert_eq!(spec.policy, ExclusionPolicy::QUARTER);
        assert!(parse(r#"{"cmd":"motifs","name":"s","min":8,"max":9,"excl":"1/0"}"#).is_err());
        assert!(parse(r#"{"cmd":"motifs","name":"s","min":8,"max":9,"excl":"half"}"#).is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            r#"[1,2]"#,
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"load","name":"s"}"#,
            r#"{"cmd":"load","name":"s","values":[1,"x"]}"#,
            r#"{"cmd":"motifs","name":"s","min":16}"#,
            r#"{"cmd":"motifs","name":"s","min":16,"max":-2}"#,
            r#"{"cmd":"motifs","name":"s","min":16,"max":32,"typo":1}"#,
            r#"{"cmd":"sets","name":"s","min":16,"max":32,"radius":-1}"#,
            r#"{"cmd":"stats","name":"s"}"#,
            r#"{"cmd":"save","name":"s"}"#,
        ] {
            assert!(parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn rejects_hostile_sleep_and_deadline_values() {
        // Over the caps, fractional, negative, and beyond-2^53 values are
        // all protocol errors — never truncated or wrapped by a cast.
        for bad in [
            r#"{"cmd":"sleep","ms":60001}"#,
            r#"{"cmd":"sleep","ms":1e300}"#,
            r#"{"cmd":"sleep","ms":12.5}"#,
            r#"{"cmd":"sleep","ms":-1}"#,
            r#"{"cmd":"sleep","ms":10,"deadline_ms":86400001}"#,
            r#"{"cmd":"motifs","name":"s","min":8,"max":9,"deadline_ms":1e300}"#,
            r#"{"cmd":"motifs","name":"s","min":8,"max":9,"deadline_ms":-5}"#,
        ] {
            assert!(parse(bad).is_err(), "should reject {bad}");
        }
        // The caps themselves are accepted.
        assert!(parse(r#"{"cmd":"sleep","ms":60000,"deadline_ms":86400000}"#).is_ok());
    }

    #[test]
    fn encode_millis_saturates_instead_of_truncating() {
        let spec = QuerySpec {
            series: "s".into(),
            kind: QueryKind::Motifs { top: 1 },
            l_min: 8,
            l_max: 9,
            p: 5,
            policy: ExclusionPolicy::HALF,
            deadline: Some(Duration::MAX),
        };
        let encoded = Request::Query(spec).to_value();
        assert_eq!(encoded.get("deadline_ms").and_then(Value::as_u64), Some(MAX_DEADLINE_MS));
    }

    #[test]
    fn request_roundtrips_through_to_value() {
        for line in [
            r#"{"cmd":"load","name":"s","values":[1,2.5],"hot":[16,32],"replace":true}"#,
            r#"{"cmd":"append","name":"s","values":[4.5]}"#,
            r#"{"cmd":"motifs","name":"s","min":16,"max":32,"top":2,"deadline_ms":500}"#,
            r#"{"cmd":"sets","name":"s","min":16,"max":32,"k":4,"radius":2.5}"#,
            r#"{"cmd":"discords","name":"s","min":16,"max":32,"excl":"1/4"}"#,
            r#"{"cmd":"sleep","ms":5}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"save"}"#,
            r#"{"cmd":"shutdown"}"#,
        ] {
            let req = parse(line).unwrap();
            let rereq = Request::from_value(&req.to_value()).unwrap();
            // Equality via debug form (QuerySpec has no PartialEq).
            assert_eq!(format!("{req:?}"), format!("{rereq:?}"), "roundtrip of {line}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let ok = response_ok(Value::obj(vec![("x", 1usize.into())]), Some(true));
        let resp = Response::from_value(&ok).unwrap();
        assert_eq!(resp.cached, Some(true));
        assert_eq!(resp.result.get("x").unwrap().as_usize(), Some(1));
        assert!(!resp.coalesced, "absent marker decodes as false");

        let co = response_query(Value::Null, Some(false), true);
        assert!(co.encode().contains(r#""coalesced":true"#));
        assert!(Response::from_value(&co).unwrap().coalesced);

        let err = response_err(&ServeError::Busy);
        assert!(matches!(Response::from_value(&err), Err(ServeError::Busy)));
        let err = response_err(&ServeError::UnknownSeries("s".into()));
        assert!(matches!(Response::from_value(&err), Err(ServeError::UnknownSeries(_))));
        let err = response_err(&ServeError::SeriesExists("s".into()));
        assert!(matches!(Response::from_value(&err), Err(ServeError::SeriesExists(_))));
        let err = response_err(&ServeError::InvalidParameter("k".into()));
        assert!(matches!(Response::from_value(&err), Err(ServeError::InvalidParameter(_))));
        let err = response_err(&ServeError::Internal("job panicked".into()));
        assert!(matches!(Response::from_value(&err), Err(ServeError::Internal(_))));
        assert!(Response::from_value(&Value::Null).is_err());
    }
}

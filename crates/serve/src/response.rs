//! Typed response shapes shared by the server and the client.
//!
//! The server *encodes* every query body, ingestion acknowledgement, and
//! save acknowledgement through these structs, and [`crate::Client`]
//! *decodes* them back — so the wire shape has exactly one definition and
//! loopback/cluster tests compare fields instead of string-matching raw
//! JSON. Encoding preserves the historical field order byte for byte; the
//! decoders tolerate unknown fields, keeping additive evolution safe.

use valmod_mp::MotifPair;

use crate::error::{ServeError, ServeResult};
use crate::protocol::Response;
use crate::value::Value;

/// A body shape that can cross the wire in both directions.
pub trait BodyShape: Sized {
    /// Encodes the body as its wire tree.
    fn to_value(&self) -> Value;
    /// Decodes the body from a wire tree.
    fn from_value(v: &Value) -> ServeResult<Self>;
}

fn missing(what: &str) -> ServeError {
    ServeError::Protocol(format!("response body missing {what}"))
}

fn get_usize(v: &Value, key: &str) -> ServeResult<usize> {
    v.get(key).and_then(Value::as_usize).ok_or_else(|| missing(key))
}

fn get_f64(v: &Value, key: &str) -> ServeResult<f64> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| missing(key))
}

/// One ranked motif: offsets, length, raw and length-normalised distance.
#[derive(Debug, Clone, PartialEq)]
pub struct MotifHit {
    /// First subsequence offset.
    pub a: usize,
    /// Second subsequence offset.
    pub b: usize,
    /// Subsequence length.
    pub l: usize,
    /// z-normalised Euclidean distance.
    pub dist: f64,
    /// Length-normalised distance (the cross-length ranking key).
    pub norm_dist: f64,
}

impl MotifHit {
    /// The server-side view of a [`MotifPair`].
    pub fn from_pair(m: &MotifPair) -> Self {
        MotifHit { a: m.a, b: m.b, l: m.l, dist: m.dist, norm_dist: m.norm_dist() }
    }

    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("a", self.a.into()),
            ("b", self.b.into()),
            ("l", self.l.into()),
            ("dist", self.dist.into()),
            ("norm_dist", self.norm_dist.into()),
        ])
    }

    fn from_value(v: &Value) -> ServeResult<Self> {
        Ok(MotifHit {
            a: get_usize(v, "a")?,
            b: get_usize(v, "b")?,
            l: get_usize(v, "l")?,
            dist: get_f64(v, "dist")?,
            norm_dist: get_f64(v, "norm_dist")?,
        })
    }
}

/// The `motifs` query body.
#[derive(Debug, Clone, PartialEq)]
pub struct MotifsBody {
    /// Ranked motifs, best first.
    pub motifs: Vec<MotifHit>,
}

impl BodyShape for MotifsBody {
    fn to_value(&self) -> Value {
        Value::obj(vec![(
            "motifs",
            Value::Arr(self.motifs.iter().map(MotifHit::to_value).collect()),
        )])
    }

    fn from_value(v: &Value) -> ServeResult<Self> {
        let arr = v.get("motifs").and_then(Value::as_arr).ok_or_else(|| missing("\"motifs\""))?;
        Ok(MotifsBody { motifs: arr.iter().map(MotifHit::from_value).collect::<ServeResult<_>>()? })
    }
}

/// One variable-length discord.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscordHit {
    /// Discord offset.
    pub offset: usize,
    /// Subsequence length.
    pub l: usize,
    /// Nearest-neighbour offset. `None` means the offset has no finite
    /// match (the VALMP ⊥ sentinel) — encoded as `null` on the wire, never
    /// as the sentinel's in-memory `usize::MAX` representation.
    pub nn: Option<usize>,
    /// Length-normalised nearest-neighbour distance (higher = more anomalous).
    pub score: f64,
}

impl DiscordHit {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("offset", self.offset.into()),
            ("l", self.l.into()),
            ("nn", self.nn.map_or(Value::Null, Value::from)),
            ("score", self.score.into()),
        ])
    }

    fn from_value(v: &Value) -> ServeResult<Self> {
        let nn = match v.get("nn").ok_or_else(|| missing("\"nn\""))? {
            Value::Null => None,
            other => Some(other.as_usize().ok_or_else(|| missing("an integer or null \"nn\""))?),
        };
        Ok(DiscordHit {
            offset: get_usize(v, "offset")?,
            l: get_usize(v, "l")?,
            nn,
            score: get_f64(v, "score")?,
        })
    }
}

/// The `discords` query body.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscordsBody {
    /// Ranked discords, most anomalous first.
    pub discords: Vec<DiscordHit>,
}

impl BodyShape for DiscordsBody {
    fn to_value(&self) -> Value {
        Value::obj(vec![(
            "discords",
            Value::Arr(self.discords.iter().map(DiscordHit::to_value).collect()),
        )])
    }

    fn from_value(v: &Value) -> ServeResult<Self> {
        let arr =
            v.get("discords").and_then(Value::as_arr).ok_or_else(|| missing("\"discords\""))?;
        Ok(DiscordsBody {
            discords: arr.iter().map(DiscordHit::from_value).collect::<ServeResult<_>>()?,
        })
    }
}

/// One variable-length motif set (paper Definition 2.6).
#[derive(Debug, Clone, PartialEq)]
pub struct SetEntry {
    /// Subsequence length.
    pub l: usize,
    /// The seeding pair's offsets.
    pub pair: (usize, usize),
    /// The seeding pair's distance.
    pub pair_dist: f64,
    /// Set radius (`D · pair_dist`).
    pub radius: f64,
    /// Member count.
    pub frequency: usize,
    /// Member offsets, ascending.
    pub offsets: Vec<usize>,
}

impl SetEntry {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("l", self.l.into()),
            ("pair", Value::Arr(vec![self.pair.0.into(), self.pair.1.into()])),
            ("pair_dist", self.pair_dist.into()),
            ("radius", self.radius.into()),
            ("frequency", self.frequency.into()),
            ("offsets", Value::Arr(self.offsets.iter().map(|&o| Value::from(o)).collect())),
        ])
    }

    fn from_value(v: &Value) -> ServeResult<Self> {
        let pair = v.get("pair").and_then(Value::as_arr).ok_or_else(|| missing("\"pair\""))?;
        let [a, b] = pair else {
            return Err(missing("a two-element \"pair\""));
        };
        let offsets =
            v.get("offsets").and_then(Value::as_arr).ok_or_else(|| missing("\"offsets\""))?;
        Ok(SetEntry {
            l: get_usize(v, "l")?,
            pair: (
                a.as_usize().ok_or_else(|| missing("\"pair\" offsets"))?,
                b.as_usize().ok_or_else(|| missing("\"pair\" offsets"))?,
            ),
            pair_dist: get_f64(v, "pair_dist")?,
            radius: get_f64(v, "radius")?,
            frequency: get_usize(v, "frequency")?,
            offsets: offsets
                .iter()
                .map(Value::as_usize)
                .collect::<Option<_>>()
                .ok_or_else(|| missing("integer \"offsets\""))?,
        })
    }
}

/// The `sets` query body.
#[derive(Debug, Clone, PartialEq)]
pub struct SetsBody {
    /// Discovered motif sets.
    pub sets: Vec<SetEntry>,
    /// Profiles answered from tracked pair snapshots.
    pub served_from_snapshots: usize,
    /// Profiles recomputed for the final set expansion.
    pub recomputed_profiles: usize,
}

impl BodyShape for SetsBody {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("sets", Value::Arr(self.sets.iter().map(SetEntry::to_value).collect())),
            ("served_from_snapshots", self.served_from_snapshots.into()),
            ("recomputed_profiles", self.recomputed_profiles.into()),
        ])
    }

    fn from_value(v: &Value) -> ServeResult<Self> {
        let arr = v.get("sets").and_then(Value::as_arr).ok_or_else(|| missing("\"sets\""))?;
        Ok(SetsBody {
            sets: arr.iter().map(SetEntry::from_value).collect::<ServeResult<_>>()?,
            served_from_snapshots: get_usize(v, "served_from_snapshots")?,
            recomputed_profiles: get_usize(v, "recomputed_profiles")?,
        })
    }
}

/// The acknowledgement for `load` and `append`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// Series name.
    pub name: String,
    /// Series version after the operation.
    pub version: u64,
    /// Series length after the operation.
    pub len: usize,
}

impl Ack {
    /// Encodes the acknowledgement (server side).
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("name", Value::str(&self.name)),
            ("version", self.version.into()),
            ("len", self.len.into()),
        ])
    }

    /// Decodes an acknowledgement (client side).
    pub fn from_value(v: &Value) -> ServeResult<Self> {
        Ok(Ack {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("\"name\""))?
                .to_string(),
            version: v
                .get("version")
                .and_then(Value::as_u64)
                .ok_or_else(|| missing("\"version\""))?,
            len: get_usize(v, "len")?,
        })
    }
}

/// The acknowledgement for `save`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveAck {
    /// Snapshots written (0 when the engine is not durable).
    pub snapshots: usize,
}

impl SaveAck {
    /// Encodes the acknowledgement (server side).
    pub fn to_value(&self) -> Value {
        Value::obj(vec![("snapshots", self.snapshots.into())])
    }

    /// Decodes an acknowledgement (client side).
    pub fn from_value(v: &Value) -> ServeResult<Self> {
        Ok(SaveAck { snapshots: get_usize(v, "snapshots")? })
    }
}

/// A decoded query reply: the common envelope plus a typed body.
#[derive(Debug, Clone)]
pub struct QueryReply<B> {
    /// Series name the query ran against.
    pub series: String,
    /// Series version the result was computed against.
    pub version: u64,
    /// Server-side compute time in milliseconds (0 for cache hits only in
    /// the sense that the cached payload reports its original compute).
    pub compute_ms: f64,
    /// Whether the payload came from the result cache.
    pub cached: bool,
    /// Whether this reply attached to another request's in-flight compute.
    pub coalesced: bool,
    /// The typed body.
    pub body: B,
}

impl<B: BodyShape> QueryReply<B> {
    /// Decodes a raw [`Response`] into the typed reply.
    pub fn from_response(resp: &Response) -> ServeResult<Self> {
        let r = &resp.result;
        Ok(QueryReply {
            series: r
                .get("series")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("\"series\""))?
                .to_string(),
            version: r
                .get("version")
                .and_then(Value::as_u64)
                .ok_or_else(|| missing("\"version\""))?,
            compute_ms: get_f64(r, "compute_ms")?,
            cached: resp.cached.unwrap_or(false),
            coalesced: resp.coalesced,
            body: B::from_value(r.get("body").ok_or_else(|| missing("\"body\""))?)?,
        })
    }
}

/// A typed view of the `stats` reply: the counters dashboards poll for,
/// plus the raw tree for everything else (the obs snapshot is open-ended
/// by design).
#[derive(Debug, Clone)]
pub struct StatsReply {
    /// Queries admitted.
    pub queries: u64,
    /// Queries actually computed (cache misses that ran).
    pub computed: u64,
    /// Queries that attached to another request's in-flight compute.
    pub coalesced: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Per-length fragment-cache hits.
    pub fragment_hits: u64,
    /// Fragments the planner computed (a segment that is only partly
    /// cached is recomputed whole, and each of its lengths counts).
    pub fragment_misses: u64,
    /// Live fragments in the planner's cache.
    pub fragment_entries: usize,
    /// The full raw stats tree (`engine` / `cache` / `planner` / `persist`
    /// / `series` / `obs`).
    pub raw: Value,
}

impl StatsReply {
    /// Decodes a raw `stats` result tree.
    pub fn from_value(v: &Value) -> ServeResult<Self> {
        let engine = v.get("engine").ok_or_else(|| missing("\"engine\""))?;
        let cache = v.get("cache").ok_or_else(|| missing("\"cache\""))?;
        let planner = v.get("planner").ok_or_else(|| missing("\"planner\""))?;
        let counter = |section: &Value, key: &str| {
            section.get(key).and_then(Value::as_u64).ok_or_else(|| missing(key))
        };
        Ok(StatsReply {
            queries: counter(engine, "queries")?,
            computed: counter(engine, "computed")?,
            coalesced: counter(engine, "coalesced")?,
            cache_hits: counter(cache, "hits")?,
            fragment_hits: counter(planner, "fragment_hits")?,
            fragment_misses: counter(planner, "fragment_misses")?,
            fragment_entries: get_usize(planner, "fragment_entries")?,
            raw: v.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motif_bodies_roundtrip() {
        let body = MotifsBody {
            motifs: vec![MotifHit { a: 3, b: 90, l: 32, dist: 0.25, norm_dist: 0.0441 }],
        };
        let v = body.to_value();
        // The wire shape is pinned: the motifs list and nothing else.
        assert!(v.encode().starts_with(r#"{"motifs""#));
        assert_eq!(v.as_obj().map(<[_]>::len), Some(1));
        assert_eq!(MotifsBody::from_value(&v).unwrap(), body);
        assert!(MotifsBody::from_value(&Value::obj(vec![])).is_err());
    }

    #[test]
    fn discord_and_set_bodies_roundtrip() {
        let d = DiscordsBody {
            discords: vec![
                DiscordHit { offset: 7, l: 16, nn: Some(80), score: 1.5 },
                DiscordHit { offset: 99, l: 16, nn: None, score: 2.5 },
            ],
        };
        assert_eq!(DiscordsBody::from_value(&d.to_value()).unwrap(), d);
        // ⊥ crosses the wire as null, never as usize::MAX's decimal form.
        let encoded = d.to_value().encode();
        assert!(encoded.contains(r#""nn":null"#));
        assert!(!encoded.contains("18446744073709551615"));
        let s = SetsBody {
            sets: vec![SetEntry {
                l: 24,
                pair: (10, 60),
                pair_dist: 0.5,
                radius: 1.5,
                frequency: 3,
                offsets: vec![10, 60, 110],
            }],
            served_from_snapshots: 2,
            recomputed_profiles: 1,
        };
        assert_eq!(SetsBody::from_value(&s.to_value()).unwrap(), s);
    }

    #[test]
    fn acks_roundtrip() {
        let ack = Ack { name: "sensor".into(), version: 3, len: 1000 };
        assert_eq!(Ack::from_value(&ack.to_value()).unwrap(), ack);
        let save = SaveAck { snapshots: 2 };
        assert_eq!(SaveAck::from_value(&save.to_value()).unwrap(), save);
        assert!(Ack::from_value(&Value::obj(vec![("name", Value::str("x"))])).is_err());
    }

    #[test]
    fn query_reply_decodes_the_envelope() {
        let body = DiscordsBody { discords: vec![] };
        let result = Value::obj(vec![
            ("series", Value::str("s")),
            ("version", 2u64.into()),
            ("compute_ms", 1.5.into()),
            ("body", body.to_value()),
        ]);
        let resp = Response { result, cached: Some(false), coalesced: true };
        let reply: QueryReply<DiscordsBody> = QueryReply::from_response(&resp).unwrap();
        assert_eq!((reply.series.as_str(), reply.version), ("s", 2));
        assert!(!reply.cached);
        assert!(reply.coalesced);
        assert!(reply.body.discords.is_empty());
    }
}

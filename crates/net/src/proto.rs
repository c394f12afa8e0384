//! The `hdc-wire` application protocol: JSON bodies over HTTP/1.1.
//!
//! # Endpoints
//!
//! | method · path | request body | success body |
//! |---------------|--------------|--------------|
//! | `GET /schema` | — | `{"format":"hdc-wire","version":1,"k":K,"n":N,"schema":[…]}` |
//! | `POST /query` | `{"q":[pred,…]}` | `{"overflow":bool,"tuples":[[val,…],…]}` |
//! | `POST /query_batch` | `{"qs":[[pred,…],…]}` | `{"outcomes":[outcome,…]}` |
//! | `POST /shutdown` | — | `{"ok":true}` (then the server drains and exits) |
//!
//! # Tokens
//!
//! Values use the compact tokens of [`Value::push_token`], shared with
//! the checkpoint format: `"c5"` is categorical value 5, `"i-7"` is
//! numeric value −7. Predicates use the tokens of
//! [`Predicate::token`], shared with shard signatures: `"*"` (any),
//! `"=5"` (categorical equality), and `"lo..hi"` (inclusive numeric
//! range). Schema attributes are
//! `{"name":…,"cat":size}` or `{"name":…,"min":…,"max":…}`.
//!
//! # Encoding answers
//!
//! A success body lists each returned tuple as one row fragment,
//! `["c3","i-7"]`, written by [`push_row`]. The serve loop never encodes
//! a tuple: it asks its [`ConnectionClient`](hdc_server::ConnectionClient)
//! for [`Answer`]s, whose fragments come from the store's row table
//! (pre-encoded by the same `push_row` on the store's first wire query),
//! and [`push_answer`] / [`push_batch_answers`] concatenate them.
//! [`outcome_body`] and [`batch_outcome_body`] encode [`QueryOutcome`]s
//! through the same framing and the same `push_row`, so both paths emit
//! the same bytes (`tests/answer_bodies.rs` checks this on random
//! stores).
//!
//! The parsers read canonical bodies with [`RowCursor`], the row codec
//! shared with the checkpoint format, which builds each tuple with one
//! allocation: values go into a reused scratch vector, which is then
//! copied into the tuple's shared buffer.
//!
//! # Errors
//!
//! A failed query returns the [`DbError::wire_status`] code with body
//! `{"kind":…,"error":…}` (plus `"issued"`/`"limit"` for budget
//! exhaustion, so [`DbError::BudgetExhausted`] round-trips
//! field-exactly). [`parse_error_body`] restores the taxonomy on the
//! client; anything unparseable degrades to the status class
//! ([`DbError::status_is_transient`]).

use hdc_server::Answer;
use hdc_types::{
    push_row, AttrKind, Attribute, DbError, Predicate, Query, QueryOutcome, RowCursor, Schema,
    Tuple, Value,
};

use crate::json::{self, Json};

/// Wire format identifier, checked on both ends.
pub const FORMAT: &str = "hdc-wire";
/// Wire format version, checked on both ends.
pub const VERSION: i64 = 1;

/// A malformed wire payload (either direction). The server answers 400;
/// the client surfaces it as [`DbError::Transient`] only when retrying
/// could help (it never does for a malformed *request*, so the client
/// treats protocol violations from the server as transient transport
/// damage instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<json::JsonError> for WireError {
    fn from(e: json::JsonError) -> Self {
        WireError(e.to_string())
    }
}

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

// --------------------------------------------------------------- queries

/// Serializes a query as the `/query` request body.
pub fn query_body(q: &Query) -> String {
    format!("{{\"q\":{}}}", preds_json(q))
}

fn preds_json(q: &Query) -> String {
    let toks: Vec<String> = q.preds().iter().map(|p| json::quote(&p.token())).collect();
    format!("[{}]", toks.join(","))
}

/// Serializes a batch as the `/query_batch` request body.
pub fn batch_body(qs: &[Query]) -> String {
    let items: Vec<String> = qs.iter().map(preds_json).collect();
    format!("{{\"qs\":[{}]}}", items.join(","))
}

fn query_from_json(v: &Json) -> Result<Query, WireError> {
    let preds = v
        .as_arr()
        .ok_or_else(|| wire_err("query must be an array of predicate tokens"))?
        .iter()
        .map(|t| {
            t.as_str()
                .ok_or_else(|| wire_err("predicate token must be a string"))
                .and_then(|tok| Predicate::parse_token(tok).map_err(WireError))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Query::new(preds))
}

/// Parses a `/query` request body.
pub fn parse_query_body(body: &str) -> Result<Query, WireError> {
    let v = json::parse(body)?;
    query_from_json(v.get("q").ok_or_else(|| wire_err("missing field q"))?)
}

/// Parses a `/query_batch` request body.
pub fn parse_batch_body(body: &str) -> Result<Vec<Query>, WireError> {
    let v = json::parse(body)?;
    v.get("qs")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("missing array field qs"))?
        .iter()
        .map(query_from_json)
        .collect()
}

// -------------------------------------------------------------- outcomes

/// Appends `items` to `out` as a JSON array, each written by `push`.
fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// Appends a serialized outcome to `out` in canonical form (`overflow`
/// first, no whitespace) — the form [`outcome_fast`] parses without
/// building a tree. `push` appends one row's [`push_row`] fragment.
fn push_outcome<R>(
    out: &mut String,
    overflow: bool,
    rows: impl IntoIterator<Item = R>,
    push: impl FnMut(&mut String, R),
) {
    out.push_str("{\"overflow\":");
    out.push_str(if overflow { "true" } else { "false" });
    out.push_str(",\"tuples\":");
    push_array(out, rows, push);
    out.push('}');
}

/// Appends a `/query_batch` body: `{"outcomes":[…]}`, one outcome per
/// item, each written by `push`.
fn push_batch<T>(
    out: &mut String,
    outcomes: impl IntoIterator<Item = T>,
    push: impl FnMut(&mut String, T),
) {
    out.push_str("{\"outcomes\":");
    push_array(out, outcomes, push);
    out.push('}');
}

fn push_outcome_tuples(out: &mut String, o: &QueryOutcome) {
    push_outcome(out, o.overflow, &o.tuples, push_row);
}

/// Appends `answer` to `out` as a `/query` success body (or one entry of
/// a batch body): its pre-encoded fragments, concatenated.
pub fn push_answer(out: &mut String, answer: Answer<'_>) {
    push_outcome(out, answer.overflow, answer.rows(), |out, row| {
        out.push_str(row)
    });
}

/// Appends `answers` to `out` as a `/query_batch` success body.
pub fn push_batch_answers<'a>(out: &mut String, answers: impl IntoIterator<Item = Answer<'a>>) {
    push_batch(out, answers, push_answer);
}

fn outcome_capacity<'a>(outs: impl IntoIterator<Item = &'a QueryOutcome>) -> usize {
    outs.into_iter()
        .map(|o| 32 + o.tuples.iter().map(|t| 4 + t.arity() * 16).sum::<usize>())
        .sum()
}

/// Serializes a `/query` success response body.
pub fn outcome_body(out: &QueryOutcome) -> String {
    let mut s = String::with_capacity(outcome_capacity([out]));
    push_outcome_tuples(&mut s, out);
    s
}

/// Serializes a `/query_batch` success response body.
pub fn batch_outcome_body(outs: &[QueryOutcome]) -> String {
    let mut s = String::with_capacity(16 + outcome_capacity(outs));
    push_batch(&mut s, outs, push_outcome_tuples);
    s
}

/// Parses one canonical outcome with the shared [`RowCursor`]: one
/// allocation per tuple, `vals` reused across tuples and outcomes. Any
/// deviation (whitespace, reordered fields, overlong numbers) is `None`
/// and the caller falls back to the generic tree parser, so tolerance
/// is unchanged.
fn outcome_fast(cur: &mut RowCursor, vals: &mut Vec<Value>) -> Option<QueryOutcome> {
    if !cur.eat(b"{\"overflow\":") {
        return None;
    }
    let overflow = if cur.eat(b"true") {
        true
    } else if cur.eat(b"false") {
        false
    } else {
        return None;
    };
    if !cur.eat(b",\"tuples\":") {
        return None;
    }
    let mut tuples = Vec::new();
    cur.rows(b",", vals, &mut tuples)?;
    cur.eat(b"}").then_some(QueryOutcome { tuples, overflow })
}

fn outcome_from_json(v: &Json) -> Result<QueryOutcome, WireError> {
    let overflow = v
        .get("overflow")
        .and_then(Json::as_bool)
        .ok_or_else(|| wire_err("missing bool field overflow"))?;
    let tuples = v
        .get("tuples")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("missing array field tuples"))?
        .iter()
        .map(|row| {
            let vals = row
                .as_arr()
                .ok_or_else(|| wire_err("tuple must be an array of value tokens"))?
                .iter()
                .map(|t| {
                    let tok = t
                        .as_str()
                        .ok_or_else(|| wire_err("value token must be a string"))?;
                    Value::parse_token(tok)
                        .ok_or_else(|| wire_err(format!("bad value token {tok:?}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Tuple::new(vals))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(QueryOutcome { tuples, overflow })
}

/// Parses a `/query` success response body. Canonical bodies (as
/// [`outcome_body`] emits them) take the allocation-free fast path;
/// anything else falls back to the generic JSON parser, so tolerance
/// is identical.
pub fn parse_outcome_body(body: &str) -> Result<QueryOutcome, WireError> {
    let mut cur = RowCursor::new(body);
    if let Some(out) = outcome_fast(&mut cur, &mut Vec::new()) {
        if cur.rest().is_empty() {
            return Ok(out);
        }
    }
    outcome_from_json(&json::parse(body)?)
}

fn batch_outcome_fast(body: &str) -> Option<Vec<QueryOutcome>> {
    let mut cur = RowCursor::new(body);
    if !cur.eat(b"{\"outcomes\":[") {
        return None;
    }
    let mut outs = Vec::new();
    let mut vals = Vec::new();
    if !cur.eat(b"]") {
        loop {
            outs.push(outcome_fast(&mut cur, &mut vals)?);
            if cur.eat(b",") {
                continue;
            }
            if cur.eat(b"]") {
                break;
            }
            return None;
        }
    }
    if !cur.eat(b"}") || !cur.rest().is_empty() {
        return None;
    }
    Some(outs)
}

/// Parses a `/query_batch` success response body, checking the server
/// answered exactly `expected` outcomes. Canonical bodies take the
/// same fast path as [`parse_outcome_body`].
pub fn parse_batch_outcome_body(
    body: &str,
    expected: usize,
) -> Result<Vec<QueryOutcome>, WireError> {
    if let Some(outs) = batch_outcome_fast(body) {
        if outs.len() != expected {
            return Err(wire_err(format!(
                "batch answered {} outcomes for {} queries",
                outs.len(),
                expected
            )));
        }
        return Ok(outs);
    }
    let v = json::parse(body)?;
    let outs = v
        .get("outcomes")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("missing array field outcomes"))?
        .iter()
        .map(outcome_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if outs.len() != expected {
        return Err(wire_err(format!(
            "batch answered {} outcomes for {} queries",
            outs.len(),
            expected
        )));
    }
    Ok(outs)
}

// ---------------------------------------------------------------- schema

/// Serializes the `/schema` response body.
pub fn schema_body(schema: &Schema, k: usize, n: usize) -> String {
    let attrs: Vec<String> = schema
        .attrs()
        .iter()
        .map(|a| match a.kind() {
            AttrKind::Categorical { size } => {
                format!("{{\"name\":{},\"cat\":{}}}", json::quote(a.name()), size)
            }
            AttrKind::Numeric { min, max } => format!(
                "{{\"name\":{},\"min\":{},\"max\":{}}}",
                json::quote(a.name()),
                min,
                max
            ),
        })
        .collect();
    format!(
        "{{\"format\":{},\"version\":{},\"k\":{},\"n\":{},\"schema\":[{}]}}",
        json::quote(FORMAT),
        VERSION,
        k,
        n,
        attrs.join(",")
    )
}

/// The `/schema` response, parsed: the remote database's shape.
#[derive(Debug, Clone)]
pub struct SchemaInfo {
    /// The attribute schema.
    pub schema: Schema,
    /// The server's top-`k` result limit.
    pub k: usize,
    /// Number of tuples on the server (informational).
    pub n: usize,
}

fn int_field(v: &Json, key: &'static str) -> Result<i128, WireError> {
    v.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| wire_err(format!("missing integer field {key}")))
}

/// Parses the `/schema` response body, checking format and version.
pub fn parse_schema_body(body: &str) -> Result<SchemaInfo, WireError> {
    let v = json::parse(body)?;
    if v.get("format").and_then(Json::as_str) != Some(FORMAT) {
        return Err(wire_err("not an hdc-wire schema document"));
    }
    if int_field(&v, "version")? != i128::from(VERSION) {
        return Err(wire_err("unsupported hdc-wire version"));
    }
    let k = usize::try_from(int_field(&v, "k")?).map_err(|_| wire_err("bad k"))?;
    let n = usize::try_from(int_field(&v, "n")?).map_err(|_| wire_err("bad n"))?;
    let attrs = v
        .get("schema")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("missing array field schema"))?
        .iter()
        .map(|a| {
            let name = a
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| wire_err("attribute without a name"))?;
            let kind = if let Some(size) = a.get("cat").and_then(Json::as_int) {
                AttrKind::Categorical {
                    size: u32::try_from(size).map_err(|_| wire_err("bad categorical size"))?,
                }
            } else {
                AttrKind::Numeric {
                    min: i64::try_from(int_field(a, "min")?).map_err(|_| wire_err("bad min"))?,
                    max: i64::try_from(int_field(a, "max")?).map_err(|_| wire_err("bad max"))?,
                }
            };
            Ok(Attribute::new(name, kind))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let schema = Schema::new(attrs).map_err(|e| wire_err(format!("invalid schema: {e}")))?;
    Ok(SchemaInfo { schema, k, n })
}

// ---------------------------------------------------------------- errors

/// Serializes a [`DbError`] as an error response body (paired with
/// [`DbError::wire_status`] on the status line).
pub fn error_body(e: &DbError) -> String {
    match e {
        DbError::InvalidQuery(se) => format!(
            "{{\"kind\":\"invalid\",\"error\":{}}}",
            json::quote(&se.to_string())
        ),
        DbError::BudgetExhausted { issued, limit } => format!(
            "{{\"kind\":\"budget\",\"error\":\"query budget exhausted\",\"issued\":{issued},\"limit\":{limit}}}"
        ),
        DbError::Backend(msg) => {
            format!("{{\"kind\":\"backend\",\"error\":{}}}", json::quote(msg))
        }
        DbError::Transient(msg) => {
            format!("{{\"kind\":\"transient\",\"error\":{}}}", json::quote(msg))
        }
    }
}

/// Restores a [`DbError`] from an error response. Malformed bodies
/// degrade gracefully to the status class: 5xx → transient, anything
/// else → permanent backend rejection.
///
/// Note the one intentional asymmetry: an `"invalid"` body maps to
/// [`DbError::Backend`], not [`DbError::InvalidQuery`], because
/// [`SchemaError`](hdc_types::SchemaError)'s structured fields are not
/// carried over the wire — and the client validates queries locally
/// against the fetched schema before sending, so a well-behaved client
/// never receives one.
pub fn parse_error_body(status: u16, body: &str) -> DbError {
    if let Ok(v) = json::parse(body) {
        let msg = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unspecified server error")
            .to_string();
        match v.get("kind").and_then(Json::as_str) {
            Some("budget") => {
                if let (Some(issued), Some(limit)) = (
                    v.get("issued").and_then(Json::as_int),
                    v.get("limit").and_then(Json::as_int),
                ) {
                    if let (Ok(issued), Ok(limit)) = (u64::try_from(issued), u64::try_from(limit)) {
                        return DbError::BudgetExhausted { issued, limit };
                    }
                }
                return DbError::Backend(msg);
            }
            Some("transient") => return DbError::Transient(msg),
            Some("backend") | Some("invalid") => return DbError::Backend(msg),
            _ => {}
        }
    }
    if DbError::status_is_transient(status) {
        DbError::Transient(format!("server answered {status}"))
    } else {
        DbError::Backend(format!("server answered {status}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::SchemaError;

    fn mixed_schema() -> Schema {
        Schema::builder()
            .categorical("city \"quoted\"", 7)
            .numeric("price", -50, 950)
            .build()
            .unwrap()
    }

    #[test]
    fn query_round_trip() {
        let q = Query::new(vec![Predicate::Eq(3), Predicate::Range { lo: -5, hi: 42 }]);
        assert_eq!(parse_query_body(&query_body(&q)).unwrap(), q);
        let qs = vec![q.clone(), Query::any(2)];
        assert_eq!(parse_batch_body(&batch_body(&qs)).unwrap(), qs);
    }

    #[test]
    fn outcome_round_trip() {
        let out = QueryOutcome {
            overflow: true,
            tuples: vec![
                Tuple::new(vec![Value::Cat(2), Value::Int(-9)]),
                Tuple::new(vec![Value::Cat(0), Value::Int(7)]),
            ],
        };
        assert_eq!(parse_outcome_body(&outcome_body(&out)).unwrap(), out);
        let outs = vec![out.clone(), QueryOutcome::resolved(Vec::new())];
        assert_eq!(
            parse_batch_outcome_body(&batch_outcome_body(&outs), 2).unwrap(),
            outs
        );
        assert!(parse_batch_outcome_body(&batch_outcome_body(&outs), 3).is_err());
    }

    #[test]
    fn schema_round_trip_with_escaped_names() {
        let schema = mixed_schema();
        let info = parse_schema_body(&schema_body(&schema, 12, 345)).unwrap();
        assert_eq!(info.schema, schema);
        assert_eq!(info.k, 12);
        assert_eq!(info.n, 345);
    }

    #[test]
    fn errors_round_trip_the_taxonomy() {
        let cases = [
            DbError::BudgetExhausted {
                issued: 41,
                limit: 40,
            },
            DbError::Backend("banned \"hard\"".into()),
            DbError::Transient("flap\n".into()),
        ];
        for e in cases {
            let back = parse_error_body(e.wire_status(), &error_body(&e));
            assert_eq!(back, e, "round trip of {e:?}");
        }
        // Invalid degrades to a permanent Backend (documented asymmetry).
        let invalid = DbError::InvalidQuery(SchemaError::Empty);
        let back = parse_error_body(invalid.wire_status(), &error_body(&invalid));
        assert!(matches!(back, DbError::Backend(_)));
        assert!(!back.is_transient());
    }

    #[test]
    fn malformed_error_bodies_degrade_to_the_status_class() {
        assert!(parse_error_body(503, "garbage").is_transient());
        assert!(!parse_error_body(403, "garbage").is_transient());
        assert!(parse_error_body(500, "{}").is_transient());
    }

    #[test]
    fn malformed_payloads_are_clean_errors() {
        for bad in [
            "",
            "{",
            "{\"q\":5}",
            "{\"q\":[\"~\"]}",
            "{\"q\":[\"=x\"]}",
            "{\"q\":[\"1..\"]}",
            "{\"qs\":{}}",
        ] {
            assert!(parse_query_body(bad).is_err(), "query body {bad:?}");
            assert!(parse_batch_body(bad).is_err(), "batch body {bad:?}");
        }
        for bad in ["", "{\"overflow\":1,\"tuples\":[]}", "{\"tuples\":[]}"] {
            assert!(parse_outcome_body(bad).is_err(), "outcome body {bad:?}");
        }
        for bad in ["", "{}", "{\"format\":\"hdc-wire\",\"version\":99}"] {
            assert!(parse_schema_body(bad).is_err(), "schema body {bad:?}");
        }
    }
}

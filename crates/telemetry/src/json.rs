//! The workspace's one JSON implementation, dependency-free.
//!
//! JSON exists only at FARM's edges: the `Stats` / `MetricsDump` reply
//! bodies, `farmctl --json`, JSON-lines event sinks and the committed
//! `BENCH_*.json` trajectories. Everything here shares one string
//! escaper ([`write_str`]) and one number formatter ([`write_num`]):
//!
//! * [`Obj`] and [`array`] stream a document in call order straight into
//!   one buffer — wire bodies, CLI output and event lines never build a
//!   tree;
//! * [`Json`] is a value tree with key-sorted objects, the pretty writer
//!   ([`Json::pretty`]) the BENCH files are written with, and the one
//!   parser ([`Json::parse`]): linear time, nesting bounded by
//!   [`MAX_DEPTH`], and total — malformed input is an `Err`, never a
//!   panic.
//!
//! Non-finite numbers have no JSON spelling; both writers emit `null`
//! for them, and the parser rejects literals that overflow to infinity.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::Snapshot;

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the system emits (fedd's `MetricsDump`) nests six levels.
pub const MAX_DEPTH: usize = 64;

/// Appends `s` as a quoted JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Appends `n`: integers below 10^15 without a fraction, other finite
/// values in Rust's shortest round-trip form, and `null` for NaN and
/// ±infinity.
pub fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// `s` as a quoted JSON string, for [`array`] elements.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// `n` as a JSON number (see [`write_num`]), for [`array`] elements.
pub fn num(n: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, n);
    out
}

/// Streaming JSON object writer. Keys are written in call order; the
/// caller guarantees uniqueness.
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        write_str(&mut self.buf, k);
        self.buf.push(':');
        &mut self.buf
    }

    pub fn str(mut self, k: &str, v: &str) -> Obj {
        write_str(self.key(k), v);
        self
    }

    pub fn num(mut self, k: &str, v: u64) -> Obj {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub fn float(mut self, k: &str, v: f64) -> Obj {
        write_num(self.key(k), v);
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Inserts a pre-rendered JSON value (object, array, ...).
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k).push_str(v);
        self
    }

    /// Appends `"counters"`: the page of a key-sorted counter map that a
    /// `Stats` cursor asks for, `limit` entries from `from_index` (0 = to
    /// the end). A paginated request (either argument non-zero) also
    /// gets `counters_next_index` (0 once exhausted) and
    /// `counters_total`, so the unpaginated body stays unchanged.
    pub fn counter_page(
        self,
        counters: &BTreeMap<String, u64>,
        from_index: u64,
        limit: u64,
    ) -> Obj {
        let paginated = from_index != 0 || limit != 0;
        let total = counters.len() as u64;
        let start = from_index.min(total);
        let end = if limit == 0 {
            total
        } else {
            start.saturating_add(limit).min(total)
        };
        let mut page = Obj::new();
        for (k, v) in counters
            .iter()
            .skip(start as usize)
            .take((end - start) as usize)
        {
            page = page.num(k, *v);
        }
        let obj = self.raw("counters", &page.finish());
        if !paginated {
            return obj;
        }
        obj.num("counters_next_index", if end < total { end } else { 0 })
            .num("counters_total", total)
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// A full telemetry [`Snapshot`] as one JSON object: counters and gauges
/// as maps, histograms as `{count, sum, max, p50, p95, p99}` objects.
pub fn snapshot_json(snap: &Snapshot) -> String {
    let mut counters = Obj::new();
    for (k, v) in &snap.counters {
        counters = counters.num(k, *v);
    }
    let mut gauges = Obj::new();
    for (k, v) in &snap.gauges {
        gauges = gauges.float(k, *v);
    }
    let mut hists = Obj::new();
    for (k, h) in &snap.histograms {
        let mut o = Obj::new()
            .num("count", h.count)
            .num("sum", h.sum)
            .num("max", h.max);
        if let Some(p) = h.p50 {
            o = o.float("p50", p);
        }
        if let Some(p) = h.p95 {
            o = o.float("p95", p);
        }
        if let Some(p) = h.p99 {
            o = o.float("p99", p);
        }
        hists = hists.raw(k, &o.finish());
    }
    Obj::new()
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &hists.finish())
        .finish()
}

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Sorted keys — emission order is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// stable output for committing next to the code.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    item.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(map) if map.is_empty() => out.push_str("{}"),
            Json::Obj(map) => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing bytes other than whitespace
    /// are an error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, of nesting past
    /// [`MAX_DEPTH`], or of a number that overflows to infinity.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { src, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Recursive-descent reader over `src`. Every step consumes input or
/// fails, and recursion stops at [`MAX_DEPTH`], so parsing is linear in
/// the input and cannot overflow the stack.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if p.peek() != Some(b':') {
                        return p.err("expected `:`");
                    }
                    p.pos += 1;
                    map.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(_) => self.number(),
        }
    }

    /// Parses the comma-separated elements of an array or object whose
    /// opening bracket is at `pos`, up to and including `close`.
    fn seq(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err(&format!("expected `,` or `{}`", close as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return self.err("expected string");
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the slice ends on a char boundary.
            let rest = &self.src.as_bytes()[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return self.err("unterminated string");
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self.src.get(self.pos..self.pos + 4);
                    let Some(code) = hex
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                    else {
                        return self.err("bad \\u escape");
                    };
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return self.err("bad escape"),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        match self.src[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(format!("bad number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::{ProptestConfig, TestRng, TestRunner};

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(
            quote("a\"b\\c\nd\te\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
        assert_eq!(quote("é\r\u{1f}x"), "\"é\\r\\u001fx\"");
    }

    #[test]
    fn objects_and_arrays_compose() {
        let inner = Obj::new().num("n", 3).finish();
        let out = Obj::new()
            .str("name", "x\"y")
            .raw("inner", &inner)
            .raw("list", &array(["1".into(), "\"two\"".into()]))
            .float("q", 0.5)
            .finish();
        assert_eq!(
            out,
            r#"{"name":"x\"y","inner":{"n":3},"list":[1,"two"],"q":0.5}"#
        );
    }

    #[test]
    fn snapshot_serializes_all_instrument_kinds() {
        let t = crate::Telemetry::new();
        t.counter("ctl.ops").add(2);
        t.latency_histogram("ctl.op_latency_us").record(40);
        let s = snapshot_json(&t.snapshot());
        assert!(s.contains(r#""ctl.ops":2"#), "{s}");
        assert!(s.contains(r#""ctl.op_latency_us":{"count":1"#), "{s}");
    }

    #[test]
    fn counter_pages_tile_the_map() {
        let counters: BTreeMap<String, u64> = [("a", 1), ("b", 2), ("c", 3)]
            .map(|(k, v)| (k.to_string(), v))
            .into();
        let page = |from, limit| Obj::new().counter_page(&counters, from, limit).finish();
        assert_eq!(page(0, 0), r#"{"counters":{"a":1,"b":2,"c":3}}"#);
        assert_eq!(
            page(0, 2),
            r#"{"counters":{"a":1,"b":2},"counters_next_index":2,"counters_total":3}"#
        );
        assert_eq!(
            page(2, 2),
            r#"{"counters":{"c":3},"counters_next_index":0,"counters_total":3}"#
        );
        assert_eq!(
            page(9, 0),
            r#"{"counters":{},"counters_next_index":0,"counters_total":3}"#
        );
    }

    #[test]
    fn round_trips_a_stats_shaped_body() {
        let v = Json::parse(
            r#"{"now_ns":12,"tasks":["a","b"],"seeds":3,"cordoned":[1,7],
               "counters":{"ctl.ops":9,"net.bytes":1024},"ok":true,"x":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("now_ns").and_then(Json::as_u64), Some(12));
        assert_eq!(
            v.get("tasks").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
        let counters = v.get("counters").and_then(Json::as_obj).unwrap();
        assert_eq!(counters["net.bytes"].as_u64(), Some(1024));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("x"), Some(&Json::Null));
    }

    #[test]
    fn escapes_and_nesting_parse() {
        let v =
            Json::parse(r#"{"k\n\"q\u0041":[[],{},[{"a":-1.5e2}]],"s":"\/\b\f\u00e9"}"#).unwrap();
        assert!(v.get("k\n\"qA").is_some(), "{v:?}");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("/\u{8}\u{c}é"));
    }

    #[test]
    fn malformed_input_errors_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1, 2,]",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"abc",
            "\"a\\",
            "{\"a\":1}x",
            "nan",
            "inf",
            "01e",
            "{'a':1}",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_write_null() {
        let v = Json::obj([
            ("nan", Json::Num(f64::NAN)),
            ("inf", Json::Num(f64::INFINITY)),
            ("ninf", Json::Num(f64::NEG_INFINITY)),
        ]);
        let text = v.pretty();
        assert_eq!(
            text,
            "{\n  \"inf\": null,\n  \"nan\": null,\n  \"ninf\": null\n}\n"
        );
        assert!(Json::parse(&text).is_ok(), "the writer's output parses");
        let compact = Obj::new()
            .float("nan", f64::NAN)
            .float("inf", f64::INFINITY)
            .finish();
        assert_eq!(compact, r#"{"nan":null,"inf":null}"#);
        assert_eq!(array([num(f64::NEG_INFINITY), num(2.5)]), "[null,2.5]");
    }

    #[test]
    fn numbers_overflowing_to_infinity_are_rejected() {
        for bad in ["1e999", "-1e999", "[1e400]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objs = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objs).is_err());
        // Both previous readers overflowed the stack on this input.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "é\\n".repeat(100_000);
        let started = std::time::Instant::now();
        let v = Json::parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(v.as_str().map(str::len), Some(300_000));
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    fn random_string(rng: &mut TestRng) -> String {
        const POOL: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', '/', 'é', '😀',
        ];
        (0..rng.below(6))
            .map(|_| POOL[rng.below(POOL.len())])
            .collect()
    }

    fn random_num(rng: &mut TestRng) -> f64 {
        match rng.below(4) {
            0 => rng.below(1_000_000) as f64,
            1 => -(rng.below(1_000) as f64),
            2 => (rng.unit_f64() - 0.5) * 1e6,
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// A random tree with finite numbers (non-finite ones write `null`).
    fn random_tree(rng: &mut TestRng, depth: usize) -> Json {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Num(
                Some(random_num(rng))
                    .filter(|n| n.is_finite())
                    .unwrap_or(0.5),
            ),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Renders a tree through the streaming writer.
    fn stream(v: &Json) -> String {
        match v {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => num(*n),
            Json::Str(s) => quote(s),
            Json::Arr(items) => array(items.iter().map(stream)),
            Json::Obj(map) => map
                .iter()
                .fold(Obj::new(), |o, (k, v)| o.raw(k, &stream(v)))
                .finish(),
        }
    }

    #[test]
    fn random_trees_round_trip_through_both_writers() {
        TestRunner::new(ProptestConfig::with_cases(512)).run_cases(|rng| {
            let v = random_tree(rng, 5);
            let pretty = v.pretty();
            assert_eq!(Json::parse(&pretty).as_ref(), Ok(&v), "{pretty}");
            let compact = stream(&v);
            assert_eq!(Json::parse(&compact).as_ref(), Ok(&v), "{compact}");
            assert!(!compact.contains('\n'), "streamed JSON is one line");
        });
    }

    #[test]
    fn mutated_stats_bodies_never_panic() {
        let counters: BTreeMap<String, u64> =
            (0..8).map(|i| (format!("ctl.op{i}"), i * 977)).collect();
        let body = Obj::new()
            .num("now_ns", 1_000_000)
            .raw("tasks", &array(["hh", "ddos"].map(quote)))
            .num("seeds", 12)
            .raw("cordoned", &array(["3".to_string()]))
            .raw("replan", &Obj::new().float("replan_us_p50", 812.5).finish())
            .counter_page(&counters, 2, 4)
            .finish();
        assert!(Json::parse(&body).is_ok(), "{body}");
        const BYTES: &[u8] = b"{}[],:\"\\0123456789.-+eEnulltrfas \n";
        TestRunner::new(ProptestConfig::with_cases(2_000)).run_cases(|rng| {
            let mut b = body.clone().into_bytes();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(b.len());
                match rng.below(4) {
                    0 => b[at] = BYTES[rng.below(BYTES.len())],
                    1 => {
                        b.remove(at);
                    }
                    2 => b.insert(at, b[at]),
                    _ => b.truncate(at),
                }
                if b.is_empty() {
                    b.push(b'{');
                }
            }
            let text = String::from_utf8(b).expect("ASCII mutations keep UTF-8");
            let _ = Json::parse(&text);
        });
    }
}

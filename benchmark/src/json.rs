//! A small JSON reader and the result-line emitter. The workspace builds
//! offline, so there is no serde; the reader covers the whole grammar
//! because it also reads `BENCHMARK.json`, which people edit by hand.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.expect(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Json::Obj(m));
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Json::Arr(a));
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// One reported metric.
#[derive(Clone, PartialEq, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one workload run reports: the contract's result line.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// The single result line. Values print with Rust's shortest
    /// round-tripping float form: every measured digit, no rounding.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                quote(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                quote(&m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Read a result line back. Metric order follows the name order of
    /// the parsed object (sorted), not the emit order.
    pub fn from_json_line(line: &str) -> Result<RunResult, String> {
        let v = parse(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
        let count = |k: &str| -> Result<u64, String> {
            let n = field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k:?} is not a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{k:?} is not a whole number"));
            }
            Ok(n as u64)
        };
        let Json::Obj(ms) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let metrics = ms
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric {name:?} lacks a numeric value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("metric {name:?} lacks a unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a bool")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let r = RunResult {
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                Metric::new("get_p50_us", 41.237_481_902_3, "us"),
                Metric::new("ops_per_s", 98_765.432_1, "1/s"),
                Metric::new("setup_s", 0.812_700_000_001, "s"),
            ],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json_line(&line).expect("parses");
        assert_eq!(back, r, "sorted names here, so order matches too");
        assert_eq!(back.metric("setup_s"), Some(0.812_700_000_001));
        assert_eq!(back.metric("nope"), None);
    }

    #[test]
    fn malformed_result_lines_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "{\"correct\": true}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"unit\": \"s\"}}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
        ] {
            assert!(RunResult::from_json_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn reads_the_general_grammar() {
        let v =
            parse(" {\"a\": [1, -2.5e1, true, null, \"x\\n\\u0041\\\"\"], \"b\": {}} ").unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(a[4].as_str(), Some("x\nA\""));
        assert_eq!(v.get("b"), Some(&Json::Obj(BTreeMap::new())));
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }
}

//! A minimal JSON reader for `REPRODUCTION.json`.
//!
//! The reproduction checker (`reproduce::diff`) pulls numbers back out of
//! the report our own writer emits, and `e2ebench`'s tests read its result
//! lines and `BENCHMARK.json` with the same parser; the
//! workspace is vendored-offline (no `serde_json`), so this is a small
//! recursive-descent parser covering exactly the JSON our writers produce:
//! objects, arrays, strings with escapes, numbers, booleans, and null.
//! It runs in time linear in the document.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all JSON numbers fit an `f64` for our reports).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a document, returning `None` on malformed input or trailing
    /// garbage.
    pub fn parse(doc: &str) -> Option<Json> {
        let bytes = doc.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Follows a `.`-separated member path through nested objects.
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for part in path.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && (bytes[*pos] as char).is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(bytes, pos);
    match *bytes.get(*pos)? {
        b'{' => parse_obj(bytes, pos),
        b'[' => parse_arr(bytes, pos),
        b'"' => parse_str(bytes, pos).map(Json::Str),
        b't' => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, b"null", Json::Null),
        _ => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], v: Json) -> Option<Json> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Json::Num)
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match *bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = std::str::from_utf8(bytes.get(*pos + 1..*pos + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy the run up to the next quote or escape in one piece:
                // both are ASCII, so the run ends on a char boundary and
                // only its own bytes are validated.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if *bytes.get(*pos)? == b']' {
        *pos += 1;
        return Some(Json::Arr(out));
    }
    loop {
        out.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match *bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(out));
            }
            _ => return None,
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '{'
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if *bytes.get(*pos)? == b'}' {
        *pos += 1;
        return Some(Json::Obj(out));
    }
    loop {
        skip_ws(bytes, pos);
        if *bytes.get(*pos)? != b'"' {
            return None;
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if *bytes.get(*pos)? != b':' {
            return None;
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        out.push((key, value));
        skip_ws(bytes, pos);
        match *bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(out));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = r#"{"a": 1.5, "b": "x\ny", "c": [1, 2, {"d": true}], "e": null,
                      "µs → ×": "µs → ×", "f": "caf\u00e9 ✓"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.path("a").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.path("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("µs → ×").unwrap().as_str(), Some("µs → ×"));
        assert_eq!(v.path("f").unwrap().as_str(), Some("café ✓"));
        let arr = v.path("c").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.path("e"), Some(&Json::Null));
        assert_eq!(v.path("missing"), None);
    }

    #[test]
    fn parses_the_bench_report_shape() {
        let doc = r#"{
  "scaling": {
    "table": [
      {"streams": 8, "speedup": 1.0749, "coalesced_per_stage": {"classify": 7.06}}
    ]
  }
}"#;
        let v = Json::parse(doc).unwrap();
        let row = &v.path("scaling.table").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("streams").unwrap().as_f64(), Some(8.0));
        assert_eq!(
            row.path("coalesced_per_stage.classify").unwrap().as_f64(),
            Some(7.06)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("[1,]"), None);
        assert_eq!(Json::parse("{} trailing"), None);
        assert_eq!(Json::parse(r#"{"a" 1}"#), None);
    }
}

//! The JSON layer, and [`Checkpoint`]: the snapshot document of
//! [`PlanCache`](crate::serve::PlanCache), which owns the journal, the
//! LRU order and the compaction rule. A checkpoint maps entry ids to the
//! exact record stored under each, plus the *signature* of the schema
//! that wrote it; it saves atomically and loads a malformed file as
//! absent.
//!
//! The build is offline (no serde), so the module carries its own
//! minimal JSON reader ([`parse_json`]) and string escaper
//! ([`json_escape`]); the serve protocol and the analyzer's reports and
//! baseline reuse them.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value (object keys keep document order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 is exact for the counters the documents carry).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Minimal JSON string escaping — the one escaper every report writer
/// in the workspace uses.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parse one JSON document. Errors carry the byte offset.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes. `pos` only ever stops on a character boundary:
    /// it advances over ASCII or over whole runs of `text`.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_lit("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let combined =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.pos)
                            })?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so the run ends on a character
                    // boundary of the (already valid) input.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let end = self.pos + run;
                    out.push_str(
                        self.text
                            .get(self.pos..end)
                            .ok_or_else(|| format!("split character at byte {}", self.pos))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// In-memory store state: a schema signature plus the record string of
/// every entry, keyed by stable id.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    sig: String,
    entries: BTreeMap<String, String>,
}

impl Checkpoint {
    /// An empty store with this schema signature.
    pub fn new(sig: &str) -> Self {
        Checkpoint {
            sig: sig.to_string(),
            entries: BTreeMap::new(),
        }
    }

    /// The schema signature the entries belong to.
    pub fn sig(&self) -> &str {
        &self.sig
    }

    /// Stored entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The record stored under `id`.
    pub fn get(&self, id: &str) -> Option<&str> {
        self.entries.get(id).map(String::as_str)
    }

    /// Store `record` under `id`.
    pub fn insert(&mut self, id: &str, record: &str) {
        self.entries.insert(id.to_string(), record.to_string());
    }

    /// Drop a stored record (the serve plan cache evicts past its
    /// bound).
    pub(crate) fn remove(&mut self, id: &str) {
        self.entries.remove(id);
    }

    /// The stored ids, in sorted order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Serialize (keys in sorted order — the file is deterministic).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"sig\":\"{}\",\"entries\":{{", json_escape(&self.sig));
        for (i, (id, record)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  \"{}\":\"{}\"",
                json_escape(id),
                json_escape(record)
            ));
        }
        out.push_str("\n}}");
        out
    }

    /// Parse a serialized checkpoint.
    fn from_json(text: &str) -> Result<Checkpoint, String> {
        let value = parse_json(text)?;
        let sig = value
            .get("sig")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint missing \"sig\"")?
            .to_string();
        let mut entries = BTreeMap::new();
        for (id, record) in value
            .get("entries")
            .and_then(JsonValue::as_object)
            .ok_or("checkpoint missing \"entries\"")?
        {
            let record = record
                .as_str()
                .ok_or_else(|| format!("entry {id:?} is not a string"))?;
            entries.insert(id.clone(), record.to_string());
        }
        Ok(Checkpoint { sig, entries })
    }

    /// Load from disk. `Ok(None)` when the file does not exist; a
    /// malformed file also comes back `None` (with a warning) — a
    /// damaged checkpoint costs its entries, never a crash.
    pub fn load(path: &Path) -> io::Result<Option<Checkpoint>> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let text = String::from_utf8(bytes).map_err(|e| e.to_string());
        match text.and_then(|text| Checkpoint::from_json(&text)) {
            Ok(cp) => Ok(Some(cp)),
            Err(e) => {
                eprintln!(
                    "warning: ignoring malformed checkpoint {}: {e}",
                    path.display()
                );
                Ok(None)
            }
        }
    }

    /// Write atomically: serialize to a sibling temp file, fsync, rename
    /// over the target, then fsync the directory so the rename is durable
    /// too. Readers (and an open after `SIGKILL`) only ever see a
    /// complete snapshot.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(self.to_json().as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "stp-checkpoint-test-{}-{tag}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn json_escape_spells_specials_the_way_the_goldens_expect() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_round_trips_gnarly_strings() {
        let gnarly = "quote \" backslash \\ newline \n tab \t nul \u{1} unicode é 🎉";
        let mut cp = Checkpoint::new(gnarly);
        cp.insert("point/\"a\"", gnarly);
        cp.insert("plain", "{\"nested\":\"json {} [] , :\"}");
        let back = Checkpoint::from_json(&cp.to_json()).expect("round trip");
        assert_eq!(back, cp);
        assert_eq!(back.get("point/\"a\""), Some(gnarly));
    }

    /// A plan cache of 1024 bodies is ~0.7 MB of string content. The
    /// parser used to re-validate the whole rest of the document for
    /// every character of it (seconds here, and growing with the
    /// square of the store); one pass takes milliseconds, so a second
    /// is a bound no machine misses and no quadratic parser meets.
    #[test]
    fn a_1024_entry_store_loads_in_one_pass() {
        let body = format!(
            "{{\"algo\":\"Br_Lin\",\"note\":\"é 🎉 \\\\ \\n\",\"pad\":\"{}\"}}",
            "x".repeat(640)
        );
        let mut cp = Checkpoint::new("serve-cache:v1");
        for i in 0..1024 {
            cp.insert(&format!("{i:016x}"), &body);
        }
        let text = cp.to_json();
        let t0 = std::time::Instant::now();
        let back = Checkpoint::from_json(&text).expect("own output parses");
        let took = t0.elapsed();
        assert_eq!(back, cp);
        assert!(
            took < std::time::Duration::from_secs(1),
            "parsing {} bytes took {took:?}",
            text.len()
        );
    }

    #[test]
    fn parser_handles_all_value_kinds() {
        let v = parse_json(
            r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": false, "s": "xA🎉"}"#,
        )
        .expect("parse");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("s").unwrap().as_str(), Some("xA🎉"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
    }

    #[test]
    fn save_load_round_trips_and_missing_is_none() {
        let path = tmp_path("roundtrip");
        assert_eq!(Checkpoint::load(&path).expect("load"), None);
        let mut cp = Checkpoint::new("sig-v1");
        cp.insert("p1", "{\"ms\":1.5}");
        cp.insert("p2", "{\"ms\":2.5}");
        cp.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load").expect("present");
        assert_eq!(back, cp);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_file_is_ignored_not_fatal() {
        let path = tmp_path("malformed");
        std::fs::write(&path, "not json at all").unwrap();
        assert_eq!(Checkpoint::load(&path).expect("load"), None);
        std::fs::remove_file(&path).unwrap();
    }
}

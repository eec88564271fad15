//! The journaled store behind serve's plan cache, plus the JSON layer.
//!
//! A store maps stable ids to the exact record string stored under each
//! (a plan-cache entry id to the plan body its cold run rendered), plus
//! a *signature* of the schema that wrote it. Open reloads the entries
//! only when the stored signature matches; a mismatch (another schema
//! version, a corrupt file) starts fresh, so stale entries never leak
//! into a store of another shape.
//!
//! On disk a [`CheckpointFile`] is a *snapshot* at `path` (one
//! [`Checkpoint`] document, saved through a temp file, fsync, atomic
//! rename and a directory fsync) plus a *journal* at `<path>.journal`: a `{"sig":…}` line, then
//! one `{"put":["<id>","<record>"]}` or `{"del":"<id>"}` line per change,
//! `fdatasync`ed before the update returns. Open replays the journal
//! over the snapshot, dropping a torn last line and stopping with a
//! warning at a record that does not parse. A *compaction* (save the
//! snapshot, then empty the journal) runs on a store's first write, on
//! open when the journal holds anything, on
//! [`flush`](CheckpointFile::flush), and whenever the journal holds more
//! records than the store has entries. So an update costs one small
//! append whatever the store's size, and a journal with no snapshot
//! beside it belongs to a deleted store and is ignored. DESIGN.md §10
//! tabulates what a `SIGKILL` at each step leaves behind.
//!
//! The build is offline (no serde), so the module carries its own
//! minimal JSON reader ([`parse_json`]) and string escaper
//! ([`json_escape`]); the serve protocol and the analyzer's reports and
//! baseline reuse them.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

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
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    /// bound). Returns the removed record, if any.
    pub fn remove(&mut self, id: &str) -> Option<String> {
        self.entries.remove(id)
    }

    /// The stored ids, in sorted order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
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
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
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

/// The journal beside the snapshot at `path`: `<path>.journal`.
pub fn journal_path(path: &Path) -> PathBuf {
    let mut journal = path.as_os_str().to_owned();
    journal.push(".journal");
    PathBuf::from(journal)
}

/// Replay the journal at `journal` onto `store`, pushing every put's id
/// onto `touched` in journal order. A torn last line is dropped, a
/// record that does not parse stops replay with a warning, and a journal
/// under another signature is ignored. True when the journal held any
/// bytes at all, so that only a compaction may append to it again.
fn replay(journal: &Path, store: &mut Checkpoint, touched: &mut Vec<String>) -> io::Result<bool> {
    let bytes = match std::fs::read(journal) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let parse = |line: &[u8]| parse_json(std::str::from_utf8(line).ok()?).ok();
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // What follows the last newline: empty, or an append cut short.
    lines.pop();
    let Some((head, records)) = lines.split_first() else {
        return Ok(!bytes.is_empty());
    };
    if parse(head).as_ref().and_then(|v| v.get("sig")?.as_str()) != Some(store.sig()) {
        eprintln!(
            "note: ignoring {}: not this store's journal",
            journal.display()
        );
        return Ok(true);
    }
    for (n, line) in records.iter().enumerate() {
        match parse(line).as_ref().and_then(journal_op) {
            Some((id, Some(record))) => {
                store.insert(id, record);
                touched.push(id.to_string());
            }
            Some((id, None)) => {
                store.remove(id);
            }
            None => {
                eprintln!(
                    "warning: {} record {} is corrupt; replay stops there",
                    journal.display(),
                    n + 1
                );
                break;
            }
        }
    }
    Ok(true)
}

/// One journal record: `(id, Some(record))` for a put, `(id, None)` for
/// a delete.
fn journal_op(line: &JsonValue) -> Option<(&str, Option<&str>)> {
    if let Some(id) = line.get("del") {
        return Some((id.as_str()?, None));
    }
    match line.get("put")?.as_array()? {
        [id, record] => Some((id.as_str()?, Some(record.as_str()?))),
        _ => None,
    }
}

/// A [`Checkpoint`] and where it persists: the snapshot path and its
/// journal, open for appending (`None` keeps the store in memory).
#[derive(Debug)]
struct Journaled {
    store: Checkpoint,
    disk: Option<(PathBuf, File)>,
    /// Records appended since the last compaction.
    records: usize,
    /// Both files exist and a save has made their names durable, so an
    /// append continues the snapshot.
    anchored: bool,
}

impl Journaled {
    /// Apply `puts`, then `dels`, and journal them in one `fdatasync`ed
    /// write — or compact instead when there is no snapshot yet or the
    /// journal would outgrow the store. Best-effort: an I/O failure warns
    /// and costs persistence, never the caller.
    fn apply<R: AsRef<str>>(&mut self, puts: &[(&str, R)], dels: &[String]) {
        for (id, record) in puts {
            self.store.insert(id, record.as_ref());
        }
        for id in dels {
            self.store.remove(id);
        }
        let mut lines = match self.records {
            0 => format!("{{\"sig\":\"{}\"}}\n", json_escape(&self.store.sig)),
            _ => String::new(),
        };
        self.records += puts.len() + dels.len();
        if (!self.anchored || self.records > self.store.len()) && self.compact().is_ok() {
            return;
        }
        let Some((path, journal)) = &mut self.disk else {
            return;
        };
        for (id, record) in puts {
            let (id, record) = (json_escape(id), json_escape(record.as_ref()));
            lines.push_str(&format!("{{\"put\":[\"{id}\",\"{record}\"]}}\n"));
        }
        for id in dels {
            lines.push_str(&format!("{{\"del\":\"{}\"}}\n", json_escape(id)));
        }
        if let Err(e) = journal
            .write_all(lines.as_bytes())
            .and_then(|()| journal.sync_data())
        {
            eprintln!("warning: could not journal {}: {e}", path.display());
        }
    }

    /// Save the snapshot, then empty the journal.
    fn compact(&mut self) -> io::Result<()> {
        if let Some((path, journal)) = &self.disk {
            let saved = self.store.save(path).and_then(|()| journal.set_len(0));
            if let Err(e) = &saved {
                eprintln!("warning: could not save checkpoint {}: {e}", path.display());
            }
            saved?;
        }
        self.records = 0;
        self.anchored = true;
        Ok(())
    }
}

/// Thread-safe journaled store: the serve plan cache keeps its bodies
/// in it. See the module docs for the on-disk format.
#[derive(Debug)]
pub struct CheckpointFile {
    inner: Mutex<Journaled>,
    /// The ids present after open, oldest write first.
    replayed: Vec<String>,
}

impl CheckpointFile {
    /// Open (or create) the store at `path` with this schema signature:
    /// the snapshot, then its journal replayed on top, then compacted if
    /// the journal held anything. Existing entries are kept only when
    /// the stored signature matches; otherwise the store starts empty.
    pub fn open(path: impl Into<PathBuf>, sig: &str) -> io::Result<CheckpointFile> {
        let path = path.into();
        // A compaction's directory fsync is what makes the journal's own
        // name durable, so appends wait for one after either file is new.
        let anchored = path.exists() && journal_path(&path).exists();
        let mut store = match Checkpoint::load(&path)? {
            Some(cp) if cp.sig() == sig => cp,
            Some(cp) => {
                eprintln!(
                    "note: checkpoint {} has signature {:?}, not {sig:?}; starting fresh",
                    path.display(),
                    cp.sig()
                );
                Checkpoint::new(sig)
            }
            None => Checkpoint::new(sig),
        };
        let mut touched: Vec<String> = store.ids().map(str::to_string).collect();
        let dirty = anchored && replay(&journal_path(&path), &mut store, &mut touched)?;
        let file = Self::new(store, Some(path), touched, anchored)?;
        if dirty {
            file.lock().compact()?;
        }
        Ok(file)
    }

    /// A store that lives in memory only.
    pub fn memory(sig: &str) -> CheckpointFile {
        Self::new(Checkpoint::new(sig), None, Vec::new(), true).expect("no file to open")
    }

    fn new(
        store: Checkpoint,
        path: Option<PathBuf>,
        touched: Vec<String>,
        anchored: bool,
    ) -> io::Result<Self> {
        let disk = match path {
            Some(path) => {
                let mut journal = std::fs::OpenOptions::new();
                let journal = journal
                    .create(true)
                    .append(true)
                    .open(journal_path(&path))?;
                Some((path, journal))
            }
            None => None,
        };
        // A later write of an id supersedes its earlier place.
        let last: HashMap<&str, usize> = touched
            .iter()
            .enumerate()
            .map(|(i, id)| (id.as_str(), i))
            .collect();
        let mut replayed: Vec<String> = store.ids().map(str::to_string).collect();
        replayed.sort_by_key(|id| last[id.as_str()]);
        let inner = Mutex::new(Journaled {
            store,
            disk,
            records: 0,
            anchored,
        });
        Ok(CheckpointFile { inner, replayed })
    }

    /// The ids the store held when it was opened, least recently
    /// written first: the snapshot's in id order, then the journal's in
    /// the order it last wrote them.
    pub fn replayed(&self) -> &[String] {
        &self.replayed
    }

    /// The record stored under `id`, if any.
    pub fn get(&self, id: &str) -> Option<String> {
        self.lock().store.get(id).map(str::to_string)
    }

    /// Store `puts`, then drop `dels`, in one journal write.
    /// Persistence is best-effort: an I/O failure warns and costs the
    /// entries' durability, never the caller.
    pub fn commit<R: AsRef<str>>(&self, puts: &[(&str, R)], dels: &[String]) {
        self.lock().apply(puts, dels);
    }

    /// Compact now: the snapshot holds everything and the journal is
    /// empty (best effort, like every write).
    pub fn flush(&self) {
        let _ = self.lock().compact();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Journaled> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
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
        remove_store(&p);
        p
    }

    fn remove_store(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(journal_path(path));
    }

    /// `(id, record)` of every stored entry, in id order.
    fn contents(file: &CheckpointFile) -> Vec<(String, String)> {
        let inner = file.lock();
        let store = &inner.store;
        store
            .ids()
            .map(|id| (id.to_string(), store.get(id).unwrap().to_string()))
            .collect()
    }

    fn pairs(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|&(id, record)| (id.into(), record.into()))
            .collect()
    }

    /// A new store at a fresh `path`, compacted at once: an empty
    /// snapshot and an empty journal.
    fn fresh(path: &Path) -> CheckpointFile {
        let file = CheckpointFile::open(path, "sig").expect("open");
        file.flush();
        file
    }

    /// A store at `path` holding `p1`, `p2`, `p3`, each written by its
    /// own journal append and never compacted (the handle is dropped
    /// without a flush, as a kill would leave it).
    fn three_appends(path: &Path) {
        let file = fresh(path);
        for (id, record) in [("p1", "one"), ("p2", "two é"), ("p3", "three")] {
            file.commit(&[(id, record)], &[]);
        }
        assert_eq!(
            std::fs::read(path).unwrap(),
            Checkpoint::new("sig").to_json().as_bytes()
        );
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

    #[test]
    fn checkpoint_file_reloads_only_on_matching_sig() {
        let path = tmp_path("sig");
        {
            let file = CheckpointFile::open(&path, "sig-a").expect("open");
            file.commit(&[("p1", "one"), ("p2", "two")], &[]);
        }
        // Same sig: the entries are kept.
        let reopened = CheckpointFile::open(&path, "sig-a").expect("open");
        assert_eq!(contents(&reopened), pairs(&[("p1", "one"), ("p2", "two")]));
        assert_eq!(reopened.get("p1").as_deref(), Some("one"));
        drop(reopened);
        // Different sig: starts fresh.
        let other = CheckpointFile::open(&path, "sig-b").expect("open");
        assert!(contents(&other).is_empty());
        remove_store(&path);
    }

    #[test]
    fn appends_replay_on_open_and_compaction_leaves_one_snapshot() {
        let path = tmp_path("compact");
        three_appends(&path);
        let file = CheckpointFile::open(&path, "sig").expect("open");
        let want = pairs(&[("p1", "one"), ("p2", "two é"), ("p3", "three")]);
        assert_eq!(contents(&file), want);
        // Open compacted: the snapshot holds everything, the journal
        // nothing, and the next append starts it with its signature.
        let snapshot = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(snapshot.len(), 3);
        assert_eq!(std::fs::read(journal_path(&path)).unwrap(), b"");
        file.commit(&[("p4", "four")], &["p1".to_string()]);
        assert_eq!(
            std::fs::read_to_string(journal_path(&path)).unwrap(),
            "{\"sig\":\"sig\"}\n{\"put\":[\"p4\",\"four\"]}\n{\"del\":\"p1\"}\n"
        );
        // Two records over three entries: still journaled. Two more
        // make four over three, and the store compacts instead.
        file.commit(&[("p5", "five")], &["p2".to_string()]);
        assert_eq!(std::fs::read(journal_path(&path)).unwrap(), b"");
        assert_eq!(Checkpoint::load(&path).unwrap().unwrap().len(), 3);
        remove_store(&path);
    }

    #[test]
    fn a_torn_last_journal_line_is_dropped_and_the_prefix_kept() {
        let path = tmp_path("torn");
        three_appends(&path);
        let journal = std::fs::read(journal_path(&path)).unwrap();
        std::fs::write(journal_path(&path), &journal[..journal.len() - 5]).unwrap();
        let file = CheckpointFile::open(&path, "sig").expect("open");
        assert_eq!(contents(&file), pairs(&[("p1", "one"), ("p2", "two é")]));
        remove_store(&path);
    }

    #[test]
    fn a_corrupt_record_stops_replay_there_and_the_store_reseals() {
        let path = tmp_path("corrupt-record");
        three_appends(&path);
        let journal = std::fs::read_to_string(journal_path(&path)).unwrap();
        let damaged = journal.replace("\"p2\"", "\"p2");
        std::fs::write(journal_path(&path), damaged).unwrap();
        let file = CheckpointFile::open(&path, "sig").expect("open");
        assert_eq!(contents(&file), pairs(&[("p1", "one")]));
        drop(file);
        // Resealed: the damage is gone, not replayed again.
        assert_eq!(std::fs::read(journal_path(&path)).unwrap(), b"");
        let file = CheckpointFile::open(&path, "sig").expect("reopen");
        assert_eq!(contents(&file), pairs(&[("p1", "one")]));
        remove_store(&path);
    }

    /// A kill between compaction's rename and its truncate leaves the
    /// old journal beside the snapshot that already holds it.
    #[test]
    fn an_old_journal_beside_a_newer_snapshot_reopens_to_the_same_state() {
        let path = tmp_path("idempotent");
        three_appends(&path);
        let file = CheckpointFile::open(&path, "sig").expect("open");
        file.commit(&[("p2", "two again")], &["p1".to_string()]);
        file.commit(&[("p1", "one again")], &[]);
        let journal = std::fs::read(journal_path(&path)).unwrap();
        let before = contents(&file);
        file.flush();
        drop(file);
        std::fs::write(journal_path(&path), journal).unwrap();
        let file = CheckpointFile::open(&path, "sig").expect("reopen");
        assert_eq!(contents(&file), before);
        assert_eq!(
            before,
            pairs(&[("p1", "one again"), ("p2", "two again"), ("p3", "three")])
        );
        // Oldest write first: p3 from the snapshot, then p2 and p1 as
        // the journal last wrote them.
        assert_eq!(file.replayed(), ["p3", "p2", "p1"]);
        remove_store(&path);
    }

    #[test]
    fn a_journal_under_another_signature_is_ignored() {
        let path = tmp_path("foreign");
        three_appends(&path);
        let mut snapshot = Checkpoint::new("other");
        snapshot.insert("p0", "zero");
        snapshot.save(&path).unwrap();
        let file = CheckpointFile::open(&path, "other").expect("open");
        assert_eq!(contents(&file), pairs(&[("p0", "zero")]));
        remove_store(&path);
    }

    #[test]
    fn deleting_the_snapshot_deletes_the_store() {
        let path = tmp_path("deleted");
        three_appends(&path);
        std::fs::remove_file(&path).unwrap();
        let file = CheckpointFile::open(&path, "sig").expect("open");
        assert!(contents(&file).is_empty());
        // The first write compacts over the stale journal.
        file.commit(&[("p9", "nine")], &[]);
        assert_eq!(std::fs::read(journal_path(&path)).unwrap(), b"");
        drop(file);
        let file = CheckpointFile::open(&path, "sig").expect("reopen");
        assert_eq!(contents(&file), pairs(&[("p9", "nine")]));
        remove_store(&path);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Write a history of puts and deletes (compacted part way), then
        /// cut one file short or flip one of its bytes. A flip that sets
        /// or clears the top bit leaves invalid UTF-8 wherever it lands,
        /// so it is always detectable; a flip within ASCII inside a string
        /// would be a different, valid document, which no format without
        /// checksums can tell apart. Opening must not fail, and what it
        /// loads must be entries that were written, byte for byte.
        #[test]
        fn a_damaged_store_opens_to_a_subset_of_what_was_written(
            ops in proptest::collection::vec((0u8..6, 0u8..4), 1..40),
            flush_at in 0usize..40,
            damage in (0u8..2, 0u8..2, 0usize..4096, 0x80u8..=0xFF),
        ) {
            let path = tmp_path("damaged");
            let mut written = std::collections::BTreeSet::new();
            {
                let file = fresh(&path);
                for (n, &(id, op)) in ops.iter().enumerate() {
                    let id = format!("p{id}");
                    if op == 0 {
                        file.commit::<&str>(&[], &[id]);
                    } else {
                        let record = format!("{{\"n\":{n},\"s\":\"é\\\\\\\"\"}}");
                        file.commit(&[(id.as_str(), record.as_str())], &[]);
                        written.insert((id, record));
                    }
                    if n == flush_at {
                        file.flush();
                    }
                }
            }
            let (journal, truncate, at, mask) = damage;
            let target = if journal == 1 { journal_path(&path) } else { path.clone() };
            let mut bytes = std::fs::read(&target).unwrap();
            if !bytes.is_empty() {
                let at = at % bytes.len();
                if truncate == 1 {
                    bytes.truncate(at);
                } else {
                    bytes[at] ^= mask;
                }
                std::fs::write(&target, &bytes).unwrap();
            }
            let file = CheckpointFile::open(&path, "sig").expect("open");
            for entry in contents(&file) {
                proptest::prop_assert!(written.contains(&entry), "{entry:?} was never written");
            }
            drop(file);
            remove_store(&path);
        }
    }
}

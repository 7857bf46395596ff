//! Append-only JSONL experiment journal.
//!
//! One JSON object per line; every write is flushed and fsynced before the
//! next cell starts, so the journal survives `kill -9` with at most one
//! truncated trailing line. [`read_journal`] tolerates exactly that failure
//! mode: it stops at the first line that is not a complete JSON object and
//! returns the intact prefix (a torn line can only be the tail of an
//! append-only file on a crash).
//!
//! The campaign CSV is a *pure function* of the journal (see
//! [`crate::campaign`]), which is what makes resume-to-identical-output
//! checkable byte for byte.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use tvnep_telemetry::Json;

/// Durable line-oriented writer for journal events.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    /// The record being written with its newline, reused across writes.
    buf: Vec<u8>,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it (and parent directories) if
    /// needed. A torn trailing line left by a crash mid-write is truncated
    /// away first — otherwise the next append would concatenate onto the
    /// partial record and corrupt it into an unparseable line, silently
    /// hiding every event written after it from [`read_journal`].
    pub fn open_append(path: &Path) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        if let Ok(bytes) = std::fs::read(path) {
            if !bytes.is_empty() && !bytes.ends_with(b"\n") {
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(keep as u64)?;
                f.sync_data()?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file,
            buf: Vec::new(),
        })
    }

    /// Appends one event as a single line and makes it durable (`fsync`)
    /// before returning. A crash between cells therefore never loses a
    /// completed cell, only (at most) the line being written.
    pub fn write(&mut self, event: &Json) -> io::Result<()> {
        self.write_line(&event.to_string())
    }

    /// Appends one serialized event (`event.to_string()`, without its
    /// newline) as [`write`](Self::write) does, for a caller that also
    /// keeps the line.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal events must be single-line");
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.file.write_all(&self.buf)?;
        self.file.sync_data()
    }
}

/// Reads every intact event from a journal file. Returns an empty list when
/// the file does not exist. Parsing stops silently at the first torn or
/// partial line — the only corruption an append-only journal can suffer from
/// an abrupt kill.
pub fn read_journal(path: &Path) -> io::Result<Vec<Json>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match Json::parse(&line) {
            Ok(ev) => out.push(ev),
            Err(_) => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvnep-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_and_appends() {
        let path = tmp("rt");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open_append(&path).unwrap();
            w.write(&Json::Obj(vec![("event".into(), Json::from("a"))]))
                .unwrap();
        }
        {
            // Re-open appends, it does not truncate.
            let mut w = JournalWriter::open_append(&path).unwrap();
            w.write(&Json::Obj(vec![("event".into(), Json::from("b"))]))
                .unwrap();
        }
        let events = read_journal(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("event").unwrap().as_str(), Some("b"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        assert!(read_journal(&tmp("missing")).unwrap().is_empty());
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let path = tmp("reopen-torn");
        std::fs::write(&path, "{\"event\":\"a\"}\n{\"event\":\"tr").unwrap();
        {
            let mut w = JournalWriter::open_append(&path).unwrap();
            w.write(&Json::Obj(vec![("event".into(), Json::from("b"))]))
                .unwrap();
        }
        let events = read_journal(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("event").unwrap().as_str(), Some("b"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn");
        std::fs::write(
            &path,
            "{\"event\":\"a\"}\n{\"event\":\"b\"}\n{\"event\":\"tr",
        )
        .unwrap();
        let events = read_journal(&path).unwrap();
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}

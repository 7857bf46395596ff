//! Append-only JSONL journal: the campaign journal and the service WAL.
//!
//! One JSON object per line; every write is flushed and fsynced before the
//! next one, so a crash can damage at most the line being written, which
//! then lacks its newline (a torn write). Every journal opens by one rule,
//! the single streaming pass of [`open`]:
//!
//! * each newline-terminated line that parses is a record, handed over in
//!   order (blank lines are skipped);
//! * an unterminated last line is the torn write: no record, and cut from
//!   the file when the pass ends;
//! * any other line that does not parse is damage no crash leaves: the pass
//!   refuses it (`InvalidData`, naming the file and the line);
//! * the pass returns the writer that appends right after the last intact
//!   record.
//!
//! So whatever reads a journal reads exactly what the writer keeps, and the
//! writer needs no second read.
//!
//! The campaign CSV is a *pure function* of the journal (see
//! [`crate::campaign`]), which is what makes resume-to-identical-output
//! checkable byte for byte.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;

use tvnep_telemetry::Json;

/// Opens the journal at `path`, creating it (and its parent directories)
/// if needed, by the one rule of the module docs: hands each intact record
/// to `each`, in order, and returns the writer. The first error, a refused
/// line or one `each` returns, ends the pass with the file as it was.
pub fn open(
    path: &Path,
    mut each: impl FnMut(Json) -> io::Result<()>,
) -> io::Result<JournalWriter> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut reader = BufReader::new(file);
    let (mut line, mut line_no, mut intact) = (Vec::new(), 0, 0);
    // A line without its newline can only be the last one: the torn write.
    while reader.read_until(b'\n', &mut line)? > 0 && line.ends_with(b"\n") {
        line_no += 1;
        intact += line.len() as u64;
        let record = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => None,
            Ok(text) => Some(Json::parse(text).map_err(|e| e.to_string())),
            Err(e) => Some(Err(e.to_string())),
        };
        if let Some(record) = record {
            each(record.map_err(|e| {
                let msg = format!("{}: line {line_no} is not JSON ({e})", path.display());
                io::Error::new(io::ErrorKind::InvalidData, msg)
            })?)?;
        }
        line.clear();
    }
    let mut file = reader.into_inner();
    if file.metadata()?.len() > intact {
        file.set_len(intact)?;
        file.sync_data()?;
    }
    file.seek(SeekFrom::Start(intact))?;
    Ok(JournalWriter { file, buf: line })
}

/// Durable line-oriented writer for journal events, made by [`open`].
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    /// The record being written with its newline, reused across writes.
    buf: Vec<u8>,
}

impl JournalWriter {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvnep-journal-{name}-{}", std::process::id()));
        p
    }

    fn read(path: &Path) -> io::Result<Vec<Json>> {
        let mut records = Vec::new();
        open(path, |r| {
            records.push(r);
            Ok(())
        })?;
        Ok(records)
    }

    fn event(name: &str) -> Json {
        Json::Obj(vec![("event".into(), Json::from(name))])
    }

    #[test]
    fn round_trips_and_appends() {
        let path = tmp("rt");
        let _ = std::fs::remove_file(&path);
        open(&path, |_| Ok(())).unwrap().write(&event("a")).unwrap();
        // Re-open appends, it does not truncate.
        open(&path, |_| Ok(())).unwrap().write(&event("b")).unwrap();
        assert_eq!(read(&path).unwrap(), vec![event("a"), event("b")]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert!(read(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let path = tmp("reopen-torn");
        std::fs::write(&path, "{\"event\":\"a\"}\n{\"event\":\"tr").unwrap();
        open(&path, |_| Ok(())).unwrap().write(&event("b")).unwrap();
        let events = read(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("event").unwrap().as_str(), Some("b"));
        std::fs::remove_file(&path).unwrap();
    }

    /// A torn tail is no record, even where it parses (the second tail):
    /// the pass hands over exactly what the writer keeps.
    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn");
        for tail in ["{\"event\":\"tr", "{\"event\":\"c\"}"] {
            let text = format!("{{\"event\":\"a\"}}\n{{\"event\":\"b\"}}\n{tail}");
            std::fs::write(&path, text).unwrap();
            assert_eq!(read(&path).unwrap().len(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_terminated_line_that_is_not_json_is_refused() {
        let path = tmp("garbage");
        let text = "{\"event\":\"a\"}\nnot json\n{\"event\":\"b\"}\n{\"event\":\"tr";
        std::fs::write(&path, text).unwrap();
        let err = read(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.starts_with(&format!("{}: line 2 ", path.display())),
            "{msg}"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "left as it was"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

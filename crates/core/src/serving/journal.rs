//! The append-only, crash-safe line journal behind the per-target budget
//! ledger ([`JournalLedger`](super::JournalLedger)) and the frontier
//! sweep's results checkpoint (`psr-frontier`).
//!
//! # Format
//!
//! Line-oriented text. Every line is a payload, a space, the 16-hex-digit
//! [`fnv1a64`] checksum of the payload and a newline. The first line is
//! the header `<tag> <fields>`, binding the file to its owner's
//! configuration; every later line is one record. The owner chooses the
//! tag, the header fields and the record payloads.
//!
//! # Replay contract
//!
//! [`Journal::open`] accepts the longest prefix of lines that unseal and
//! parse, drops a torn or corrupt tail (the signature of a crash
//! mid-append), truncates the file back to the valid prefix and appends
//! from there. A torn header, or a file of another format, means nothing
//! was ever durable, so the file restarts fresh. A *valid* header whose
//! fields disagree with the caller's configuration is a hard
//! [`io::ErrorKind::InvalidData`] error — silently re-interpreting old
//! records against a different configuration would corrupt whatever the
//! journal accounts for.
//!
//! # Durability
//!
//! [`Journal::stage`] buffers records in memory; [`Journal::sync`] writes
//! everything staged with one positional write at the end of the durable
//! prefix and one `fsync`. A record is durable once the `sync` after it
//! returns, and not before. A fresh header is written and `fsync`ed by
//! [`Journal::open`], which then `fsync`s the journal's directory, so a
//! power cut cannot drop a newly created journal's directory entry. Because the write lands at the durable length
//! rather than at the file's end, a retry after a write that failed
//! part-way overwrites the torn fragment instead of appending after it.

use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use psr_obs::Histogram;

/// FNV-1a 64-bit, the checksum guarding every journal line. Not
/// cryptographic — it detects torn writes and bit rot, which is all a
/// single-writer journal needs. The same function checksums PSRZ snapshot
/// bodies; psr-graph owns the one implementation.
pub use psr_graph::compressed::body_checksum as fnv1a64;

/// An open journal, positioned for appending. See the module docs for the
/// format, the replay contract and the durability points.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// The sealed header line, rewritten by `reset`.
    header: String,
    /// Sealed records staged by `stage`, written and fsynced by `sync`.
    pending: String,
    /// Length of the durable prefix: the header and every synced record.
    /// `sync` writes the staged records at this offset.
    durable_len: u64,
    /// Per-sync write+fsync latency; inert until `instrument` is called.
    fsync_latency: Histogram,
}

impl Journal {
    /// Opens (or creates) the journal at `path` whose header is
    /// `<tag> <header>`, replaying every record of the longest valid
    /// prefix through `parse` (the first record it rejects starts the
    /// dropped tail).
    ///
    /// A valid header line starting with `tag` hands its remaining fields
    /// to `check`; an `Err` message from `check` is returned as an
    /// [`io::ErrorKind::InvalidData`] error and the file is left as it was.
    pub fn open<R>(
        path: impl AsRef<Path>,
        tag: &str,
        header: &str,
        check: impl FnOnce(&str) -> Result<(), String>,
        mut parse: impl FnMut(&str) -> Option<R>,
    ) -> io::Result<(Self, Vec<R>)> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let content = lossy_utf8_prefix(bytes);

        let mut records = Vec::new();
        let mut valid_len = 0;
        let mut lines = content.split_inclusive('\n');
        let first = lines.next().unwrap_or_default();
        if let Some(fields) = unseal(first).and_then(|payload| payload.strip_prefix(tag)) {
            check(fields.trim_start())
                .map_err(|message| io::Error::new(io::ErrorKind::InvalidData, message))?;
            valid_len = first.len();
            for line in lines {
                let Some(record) = unseal(line).and_then(&mut parse) else { break };
                records.push(record);
                valid_len += line.len();
            }
        }

        let mut sealed_header = String::new();
        seal(&mut sealed_header, format_args!("{tag} {header}"));
        file.set_len(valid_len as u64)?;
        if valid_len == 0 {
            file.write_all_at(sealed_header.as_bytes(), 0)?;
            file.sync_data()?;
            // The file may be new: make its directory entry durable too.
            File::open(parent_dir(&path))?.sync_all()?;
            valid_len = sealed_header.len();
        }
        let journal = Journal {
            path,
            file,
            header: sealed_header,
            pending: String::new(),
            durable_len: valid_len as u64,
            fsync_latency: Histogram::default(),
        };
        Ok((journal, records))
    }

    /// Stages one record, sealing it straight into the pending buffer.
    /// It is durable only after the next [`Journal::sync`].
    pub fn stage(&mut self, record: fmt::Arguments<'_>) {
        seal(&mut self.pending, record);
    }

    /// Writes every staged record at the end of the durable prefix and
    /// `fsync`s; a no-op when nothing is staged. If the write or the
    /// `fsync` fails, the records stay staged for the next call, which
    /// writes them at the same offset, over whatever part of them the
    /// failed write left.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        // The clock is only read when the histogram is live, so an
        // uninstrumented sync pays nothing.
        let start = self.fsync_latency.is_enabled().then(Instant::now);
        self.write_staged()?;
        if let Some(start) = start {
            self.fsync_latency
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        Ok(())
    }

    /// Drops every record, staged or durable, leaving only the header, and
    /// `fsync`s. Once the file is truncated, the header is staged like a
    /// record, so if its write or `fsync` fails the next `sync` writes it
    /// first.
    pub fn reset(&mut self) -> io::Result<()> {
        self.pending.clear();
        self.file.set_len(0)?;
        self.durable_len = 0;
        self.pending.push_str(&self.header);
        self.write_staged()
    }

    /// Writes the staged bytes at the durable length, `fsync`s, and only
    /// then counts them durable and clears them.
    fn write_staged(&mut self) -> io::Result<()> {
        self.file.write_all_at(self.pending.as_bytes(), self.durable_len)?;
        self.file.sync_data()?;
        self.durable_len += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Attaches a histogram recording each non-empty sync's write+fsync
    /// time. Telemetry observes, never participates: the journal's bytes
    /// and durability are identical with or without a live histogram.
    pub fn instrument(&mut self, fsync_latency: Histogram) {
        self.fsync_latency = fsync_latency;
    }

    /// The journal's on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Appends one journal line to `out`: the payload, a space, its checksum
/// and a newline.
fn seal(out: &mut String, payload: fmt::Arguments<'_>) {
    let start = out.len();
    out.write_fmt(payload).expect("formatting into a String cannot fail");
    let checksum = fnv1a64(&out.as_bytes()[start..]);
    writeln!(out, " {checksum:016x}").expect("formatting into a String cannot fail");
}

/// Splits a newline-terminated line into payload and checksum and
/// verifies the seal. `None` for torn or corrupt lines.
fn unseal(line: &str) -> Option<&str> {
    let body = line.strip_suffix('\n')?;
    let (payload, crc) = body.rsplit_once(' ')?;
    let crc = (crc.len() == 16).then(|| u64::from_str_radix(crc, 16).ok()).flatten()?;
    (crc == fnv1a64(payload.as_bytes())).then_some(payload)
}

/// The directory holding `path`: its parent, or `.` for a bare file name.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Reads a journal file as text, tolerating a torn non-UTF8 tail: the
/// longest valid UTF-8 prefix is returned and the rest is treated like
/// any other corrupt tail (it will fail [`unseal`] at its first line).
/// Journals are single-writer text we wrote ourselves, so a non-UTF8
/// byte *is* corruption — but only from that byte onward.
fn lossy_utf8_prefix(bytes: Vec<u8>) -> String {
    match String::from_utf8(bytes) {
        Ok(text) => text,
        Err(err) => {
            let valid = err.utf8_error().valid_up_to();
            let bytes = err.into_bytes();
            std::str::from_utf8(&bytes[..valid]).expect("checked prefix").to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(payload: &str) -> String {
        let mut line = String::new();
        seal(&mut line, format_args!("{payload}"));
        line
    }

    #[test]
    fn a_journal_syncs_the_directory_it_lives_in() {
        assert_eq!(parent_dir(Path::new("budget.journal")), Path::new("."));
        assert_eq!(parent_dir(Path::new("runs/budget.journal")), Path::new("runs"));
        assert_eq!(parent_dir(Path::new("/budget.journal")), Path::new("/"));
    }

    #[test]
    fn seal_round_trips() {
        let line = sealed("R 7 payload");
        assert!(line.ends_with('\n'));
        assert_eq!(unseal(&line), Some("R 7 payload"));
    }

    #[test]
    fn unseal_rejects_tampering_and_torn_lines() {
        let line = sealed("R 7 payload");
        assert_eq!(unseal(&line.replace('7', "8")), None);
        assert_eq!(unseal(&line[..line.len() - 1]), None, "missing newline means torn");
        assert_eq!(unseal("no checksum at all\n"), None);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn latency_histogram_samples_each_nonempty_sync_only() {
        let path = std::env::temp_dir()
            .join(format!("psr-journal-latency-{}.journal", std::process::id()));
        let open = |path: &Path| {
            Journal::open(path, "psrtest v1", "1", |_| Ok(()), |payload| Some(payload.to_owned()))
                .unwrap()
        };
        let histogram = psr_obs::MetricsRegistry::enabled().histogram("journal.fsync_ns");
        let (mut journal, _) = open(&path);
        journal.instrument(histogram.clone());
        journal.sync().unwrap(); // nothing staged: no write, no sample
        journal.stage(format_args!("R 1"));
        journal.stage(format_args!("R 2"));
        journal.sync().unwrap();
        journal.reset().unwrap();
        journal.stage(format_args!("R 3"));
        journal.sync().unwrap();
        assert_eq!(histogram.load().count(), 2, "one sample per non-empty sync, none on reset");
        drop(journal);
        let (_, records) = open(&path);
        assert_eq!(records, ["R 3"], "reset dropped the first batch");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_sync_after_a_torn_write_overwrites_the_fragment() {
        use std::io::{Seek, SeekFrom, Write};
        let path =
            std::env::temp_dir().join(format!("psr-journal-torn-{}.journal", std::process::id()));
        let open = |path: &Path| {
            Journal::open(path, "psrtest v1", "1", |_| Ok(()), |payload| Some(payload.to_owned()))
                .unwrap()
        };
        // A write that fails part-way leaves bytes past the durable length
        // (here written through a second handle) and, had it gone through
        // the file cursor, leaves the cursor after them.
        let tear = |journal: &mut Journal, bytes: &[u8]| {
            OpenOptions::new().append(true).open(&path).unwrap().write_all(bytes).unwrap();
            journal.file.seek(SeekFrom::End(0)).unwrap();
        };
        let (mut journal, _) = open(&path);
        journal.stage(format_args!("R 1"));
        journal.sync().unwrap();
        journal.stage(format_args!("R 2"));
        journal.stage(format_args!("R 3"));
        let fragment = journal.pending[..journal.pending.len() * 3 / 4].to_owned();
        tear(&mut journal, fragment.as_bytes());
        journal.sync().unwrap();
        let expected = [sealed("psrtest v1 1"), sealed("R 1"), sealed("R 2"), sealed("R 3")];
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected.concat());

        journal.reset().unwrap();
        tear(&mut journal, b"R 4 garbage");
        journal.stage(format_args!("R 4"));
        journal.stage(format_args!("R 5"));
        journal.sync().unwrap();
        let expected = [sealed("psrtest v1 1"), sealed("R 4"), sealed("R 5")];
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected.concat());
        drop(journal);
        assert_eq!(open(&path).1, ["R 4", "R 5"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lossy_prefix_stops_at_first_bad_byte() {
        let mut bytes = b"good line\n".to_vec();
        bytes.extend([0xff, 0xfe]);
        bytes.extend(b"after");
        assert_eq!(lossy_utf8_prefix(bytes), "good line\n");
        assert_eq!(lossy_utf8_prefix(b"all clean\n".to_vec()), "all clean\n");
    }
}

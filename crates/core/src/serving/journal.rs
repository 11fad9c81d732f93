//! Shared primitives for append-only, crash-safe line journals.
//!
//! Two subsystems persist state as line-oriented text journals with the
//! same durability story: the per-target budget ledger
//! ([`JournalLedger`](super::JournalLedger)) and the frontier sweep's
//! results checkpoint (`psr-frontier`). Both need the same three
//! building blocks, extracted here so the formats stay idiom-identical:
//!
//! * [`fnv1a64`] — the checksum guarding every line,
//! * [`seal`] / [`unseal`] — payload ↔ checksummed line framing,
//! * [`LineSplitter`] — newline iteration that tracks the byte length of
//!   the *valid prefix*, which is exactly what truncate-on-replay needs.
//!
//! The replay contract both journals follow: accept the longest prefix of
//! lines that unseal, drop a torn or corrupt tail (the signature of a
//! crash mid-append), truncate the file back to the valid prefix and
//! append from there. A *valid* header that disagrees with the caller's
//! configuration is a hard error — silently re-interpreting old records
//! against a different configuration would corrupt whatever the journal
//! accounts for.

/// FNV-1a 64-bit, the checksum guarding every journal line. Not
/// cryptographic — it detects torn writes and bit rot, which is all a
/// single-writer journal needs. The same function checksums PSRZ snapshot
/// bodies; psr-graph owns the one implementation.
pub use psr_graph::compressed::body_checksum as fnv1a64;

/// Formats a journal line: payload plus its checksum, newline-terminated.
#[must_use]
pub fn seal(payload: &str) -> String {
    format!("{payload} {:016x}\n", fnv1a64(payload.as_bytes()))
}

/// Splits a newline-terminated line into payload and checksum and
/// verifies the seal. `None` for torn or corrupt lines.
#[must_use]
pub fn unseal(line: &str) -> Option<&str> {
    let body = line.strip_suffix('\n')?;
    let (payload, crc) = body.rsplit_once(' ')?;
    let crc = (crc.len() == 16).then(|| u64::from_str_radix(crc, 16).ok()).flatten()?;
    (crc == fnv1a64(payload.as_bytes())).then_some(payload)
}

/// Iterates newline-terminated lines (terminator included) while
/// tracking how many bytes the *previous* items covered — exactly what
/// valid-prefix truncation needs. A trailing fragment without `\n` is
/// yielded too (it will fail [`unseal`]) but never counted as consumed.
#[derive(Debug)]
pub struct LineSplitter<'a> {
    text: &'a str,
    offset: usize,
    consumed: usize,
}

impl<'a> LineSplitter<'a> {
    /// Starts splitting at the beginning of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        LineSplitter { text, offset: 0, consumed: 0 }
    }

    /// Bytes covered by all fully-consumed (newline-terminated) lines
    /// yielded so far.
    #[must_use]
    pub fn consumed_before_current(&self) -> usize {
        self.consumed
    }
}

impl<'a> Iterator for LineSplitter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.offset >= self.text.len() {
            return None;
        }
        self.consumed = self.offset;
        let rest = &self.text[self.offset..];
        let line = match rest.find('\n') {
            Some(pos) => &rest[..=pos],
            None => rest,
        };
        self.offset += line.len();
        if line.ends_with('\n') {
            self.consumed = self.offset;
        }
        Some(line)
    }
}

/// Reads a journal file as text, tolerating a torn non-UTF8 tail: the
/// longest valid UTF-8 prefix is returned and the rest is treated like
/// any other corrupt tail (it will fail [`unseal`] at its first line).
/// Journals are single-writer text we wrote ourselves, so a non-UTF8
/// byte *is* corruption — but only from that byte onward.
#[must_use]
pub fn lossy_utf8_prefix(bytes: Vec<u8>) -> String {
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

    #[test]
    fn seal_round_trips() {
        let line = seal("R 7 payload");
        assert!(line.ends_with('\n'));
        assert_eq!(unseal(&line), Some("R 7 payload"));
    }

    #[test]
    fn unseal_rejects_tampering_and_torn_lines() {
        let line = seal("R 7 payload");
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
    fn line_splitter_tracks_valid_prefix() {
        let text = "one\ntwo\nthr";
        let mut lines = LineSplitter::new(text);
        assert_eq!(lines.next(), Some("one\n"));
        assert_eq!(lines.consumed_before_current(), 4);
        assert_eq!(lines.next(), Some("two\n"));
        assert_eq!(lines.consumed_before_current(), 8);
        assert_eq!(lines.next(), Some("thr"));
        assert_eq!(lines.consumed_before_current(), 8, "torn tail never counts as consumed");
        assert_eq!(lines.next(), None);
        assert_eq!(lines.consumed_before_current(), 8);
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

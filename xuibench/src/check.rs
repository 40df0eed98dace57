//! Output checking: a digest of every call's deterministic outputs,
//! compared against the references recorded for the default seed and
//! against every earlier result of the same call in the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Reference digests recorded at the default seed, one `<call id> <hex>`
/// line per call.
pub const REFERENCES: &str = include_str!("../references.txt");

/// FNV-1a, 64-bit: a stable digest that needs no dependency.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes a number in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a value's JSON rendering (every serialized field counts).
///
/// # Panics
///
/// Panics if the value cannot be serialized, which the report types
/// used here cannot fail.
#[must_use]
pub fn digest_json<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("report serializes");
    Fnv::default().bytes(json.as_bytes()).finish()
}

/// Parses reference lines (`<call id> <16 hex digits>`; `#` comments).
/// The digest is the last word, so call ids may contain spaces.
///
/// # Errors
///
/// Describes the first malformed line.
pub fn parse_references(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut refs = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, hex) = line
            .rsplit_once(' ')
            .ok_or(format!("references line {}: no digest", n + 1))?;
        let digest = u64::from_str_radix(hex.trim(), 16)
            .map_err(|e| format!("references line {}: {e}", n + 1))?;
        if refs.insert(id.to_string(), digest).is_some() {
            return Err(format!("references line {}: duplicate id {id}", n + 1));
        }
    }
    Ok(refs)
}

/// Counts attempted and failed checks for a run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Reference digests to enforce, if this run's inputs have them.
    refs: Option<BTreeMap<String, u64>>,
    /// First digest seen per call id in this run.
    seen: BTreeMap<String, u64>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed: output mismatch, panic or oracle divergence.
    pub failed: u64,
    /// Why the first few checks failed.
    pub problems: Vec<String>,
}

impl Checker {
    /// A checker that enforces `refs` (when given) and determinism.
    #[must_use]
    pub fn new(refs: Option<BTreeMap<String, u64>>) -> Self {
        Self {
            refs,
            ..Self::default()
        }
    }

    /// Records a check that needs no digest (e.g. an oracle verdict).
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(why());
            }
        }
    }

    /// Checks one call's digest against its reference (if enforced) and
    /// against every earlier digest of the same call in this run.
    pub fn expect(&mut self, id: &str, digest: u64) {
        let reference = match &self.refs {
            Some(refs) => match refs.get(id) {
                Some(&want) if want == digest => Ok(()),
                Some(&want) => Err(format!("{id}: digest {digest:016x}, reference {want:016x}")),
                None => Err(format!("{id}: no reference digest")),
            },
            None => Ok(()),
        };
        let repeat = match self.seen.get(id) {
            Some(&first) if first != digest => Err(format!(
                "{id}: digest {digest:016x} differs from earlier {first:016x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(id.to_string(), digest);
                Ok(())
            }
        };
        let result = reference.and(repeat);
        self.record(result.is_ok(), || result.err().unwrap_or_default());
    }

    /// Every call id with its first digest, as reference lines.
    #[must_use]
    pub fn digest_lines(&self) -> String {
        let mut out = String::new();
        for (id, d) in &self.seen {
            let _ = writeln!(out, "{id} {d:016x}");
        }
        out
    }

    /// One digest over every call's digest, for comparing two runs.
    #[must_use]
    pub fn combined(&self) -> u64 {
        let mut h = Fnv::default();
        for (id, d) in &self.seen {
            h.bytes(id.as_bytes()).u64(*d);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_and_repeat_mismatches_fail() {
        let refs = parse_references("# comment\na 00000000000000ff\n").expect("parses");
        let mut c = Checker::new(Some(refs));
        c.expect("a", 0xff);
        c.expect("a", 0xfe);
        c.expect("b", 1);
        assert_eq!((c.attempted, c.failed), (3, 2));

        let mut free = Checker::new(None);
        free.expect("x", 1);
        free.expect("x", 1);
        free.expect("x", 2);
        assert_eq!((free.attempted, free.failed), (3, 1));
    }

    #[test]
    fn malformed_references_are_rejected() {
        assert!(parse_references("a zz").is_err());
        assert!(parse_references("a 1\na 2").is_err());
        assert!(parse_references("lonely").is_err());
    }
}

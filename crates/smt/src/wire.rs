//! Stable binary serialization for snapshot payloads.
//!
//! The resumable repair driver (`cpr-core`) checkpoints its anytime state —
//! term pool, patch parameter constraints, input queue, seen-prefix sets —
//! to disk and resumes it bit-identically. This module
//! provides the byte-level codec those snapshots are built from: a little
//! length-prefixed writer/reader pair plus `Wire` encodings for the
//! `cpr-smt` value types that appear in the payload.
//!
//! Design rules:
//!
//! * **Std-only and explicit.** Fixed-width little-endian integers, length
//!   prefixes for every collection, no implicit framing. The format is
//!   versioned by its *consumer* (the snapshot header in `cpr-core`), not
//!   here.
//! * **Reads never panic.** Every decoder returns a typed [`WireError`] on
//!   truncated input, an unknown tag, or an id that points outside the
//!   structure it belongs to. Malformed snapshots must surface as errors,
//!   not as panics or — worse — silently wrong repair state.
//! * **Stable bytes.** Encoders iterate collections in a canonical order
//!   (sorted ids, insertion order where order is semantic), so encoding the
//!   same logical state twice produces identical bytes.

use std::fmt;

use crate::interval::Interval;
use crate::model::{Model, Value};
use crate::region::{ParamBox, Region};
use crate::solver::{Domains, SolverStats};
use crate::term::{TermId, VarId};

/// Typed decoding failure. Every variant names what was being read, so a
/// failed snapshot load can say more than "bad file".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// The kind of value the tag was for.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeded the sanity bound for its collection.
    BadLength {
        /// The collection being decoded.
        what: &'static str,
        /// The declared length.
        len: u64,
    },
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An id referred outside the structure it indexes into (e.g. a term
    /// child id at or above its own position, or a variable id beyond the
    /// pool's variable table).
    IdOutOfRange {
        /// The kind of id.
        what: &'static str,
        /// The offending raw id.
        id: u64,
        /// The exclusive limit it had to stay under.
        limit: u64,
    },
    /// A structural invariant of the decoded value was violated (e.g. an
    /// interval with `lo > hi`, or a duplicate interned term).
    Invariant {
        /// Description of the violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated input while reading {context}")
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadLength { what, len } => {
                write!(f, "implausible {what} length {len}")
            }
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::IdOutOfRange { what, id, limit } => {
                write!(f, "{what} id {id} out of range (limit {limit})")
            }
            WireError::Invariant { what } => write!(f, "invariant violated: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity cap on length prefixes read through [`ByteReader::len`] (scalar
/// counters and string lengths, which are bounds-checked against the input
/// before any allocation). Sequence counts that feed `Vec::with_capacity`
/// go through [`ByteReader::seq_len`] instead, which bounds them by the
/// bytes actually remaining.
const MAX_LEN: u64 = 1 << 32;

/// Append-only byte sink with fixed-width little-endian primitives.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes writing and hands back the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// A view of the bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix (for magic values).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a byte slice, mirroring [`ByteWriter`]. All reads are
/// bounds-checked and return [`WireError::Truncated`] past the end.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over the full slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, context: &'static str) -> Result<i64, WireError> {
        let b = self.take(8, context)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length prefix, checking it against the sanity cap.
    pub fn len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.u64(what)?;
        if n > MAX_LEN {
            return Err(WireError::BadLength { what, len: n });
        }
        Ok(n as usize)
    }

    /// Reads the length prefix of a sequence whose elements each occupy at
    /// least `min_elem_bytes` of input. A count that could not possibly fit
    /// in the remaining bytes is rejected *here*, so callers may pass the
    /// result to `Vec::with_capacity` without a corrupt-but-checksummed
    /// prefix demanding a multi-GB allocation before element validation
    /// runs.
    pub fn seq_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, WireError> {
        let n = self.u64(what)?;
        let fits = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > fits {
            return Err(WireError::BadLength { what, len: n });
        }
        Ok(n as usize)
    }

    /// Reads a boolean byte (`0` or `1`).
    pub fn bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<String, WireError> {
        let n = self.len(context)?;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads `n` raw bytes (for magic values).
    pub fn raw(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, context)
    }
}

/// FNV-1a over a byte slice — the fingerprint primitive used by snapshot
/// headers (subject digest, payload checksum). Stable across platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Wire encodings for cpr-smt value types.
// ---------------------------------------------------------------------------

/// Writes a [`TermId`] as its raw index.
pub fn write_term_id(w: &mut ByteWriter, t: TermId) {
    w.u32(t.0);
}

/// Reads a [`TermId`], validating it against the exclusive `limit` (usually
/// the term count of the pool it will index into).
pub fn read_term_id(
    r: &mut ByteReader<'_>,
    limit: usize,
    context: &'static str,
) -> Result<TermId, WireError> {
    let raw = r.u32(context)?;
    if (raw as usize) >= limit {
        return Err(WireError::IdOutOfRange {
            what: context,
            id: u64::from(raw),
            limit: limit as u64,
        });
    }
    Ok(TermId(raw))
}

/// Writes a [`VarId`] as its raw index.
pub fn write_var_id(w: &mut ByteWriter, v: VarId) {
    w.u32(v.0);
}

/// Reads a [`VarId`], validating it against the exclusive `limit` (usually
/// the variable count of the pool it will index into).
pub fn read_var_id(
    r: &mut ByteReader<'_>,
    limit: usize,
    context: &'static str,
) -> Result<VarId, WireError> {
    let raw = r.u32(context)?;
    if (raw as usize) >= limit {
        return Err(WireError::IdOutOfRange {
            what: context,
            id: u64::from(raw),
            limit: limit as u64,
        });
    }
    Ok(VarId(raw))
}

/// Writes an [`Interval`] as its two endpoints.
pub fn write_interval(w: &mut ByteWriter, iv: Interval) {
    w.i64(iv.lo());
    w.i64(iv.hi());
}

/// Reads an [`Interval`], rejecting `lo > hi`.
pub fn read_interval(r: &mut ByteReader<'_>) -> Result<Interval, WireError> {
    let lo = r.i64("interval lo")?;
    let hi = r.i64("interval hi")?;
    Interval::new(lo, hi).ok_or(WireError::Invariant {
        what: "interval lo <= hi",
    })
}

/// Writes a [`Value`].
pub fn write_value(w: &mut ByteWriter, v: Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(i);
        }
        Value::Bool(b) => {
            w.u8(1);
            w.bool(b);
        }
    }
}

/// Reads a [`Value`].
pub fn read_value(r: &mut ByteReader<'_>) -> Result<Value, WireError> {
    match r.u8("value tag")? {
        0 => Ok(Value::Int(r.i64("int value")?)),
        1 => Ok(Value::Bool(r.bool("bool value")?)),
        tag => Err(WireError::BadTag { what: "value", tag }),
    }
}

/// Writes a [`Model`] as its sorted `(variable, value)` pairs.
pub fn write_model(w: &mut ByteWriter, m: &Model) {
    w.usize(m.len());
    for (v, val) in m.iter() {
        write_var_id(w, v);
        write_value(w, val);
    }
}

/// Reads a [`Model`], validating variable ids against `var_limit`.
pub fn read_model(r: &mut ByteReader<'_>, var_limit: usize) -> Result<Model, WireError> {
    // Min entry: 4-byte var id + 1-byte value tag + 1-byte payload.
    let n = r.seq_len("model entries", 6)?;
    let mut m = Model::new();
    for _ in 0..n {
        let v = read_var_id(r, var_limit, "model variable")?;
        let val = read_value(r)?;
        m.set(v, val);
    }
    Ok(m)
}

/// Writes a [`ParamBox`] as its per-dimension intervals.
pub fn write_param_box(w: &mut ByteWriter, b: &ParamBox) {
    w.usize(b.dims());
    for &iv in b.intervals() {
        write_interval(w, iv);
    }
}

/// Reads a [`ParamBox`] of exactly `dims` dimensions.
pub fn read_param_box(r: &mut ByteReader<'_>, dims: usize) -> Result<ParamBox, WireError> {
    let n = r.seq_len("box dims", 16)?;
    if n != dims {
        return Err(WireError::Invariant {
            what: "box dimensionality matches region parameters",
        });
    }
    let mut ivs = Vec::with_capacity(n);
    for _ in 0..n {
        ivs.push(read_interval(r)?);
    }
    Ok(ParamBox::new(ivs))
}

/// Writes a [`Region`]: the ordered parameters, then the boxes.
pub fn write_region(w: &mut ByteWriter, region: &Region) {
    w.usize(region.params().len());
    for &p in region.params() {
        write_var_id(w, p);
    }
    w.usize(region.boxes().len());
    for b in region.boxes() {
        write_param_box(w, b);
    }
}

/// Reads a [`Region`], validating parameter ids against `var_limit`.
pub fn read_region(r: &mut ByteReader<'_>, var_limit: usize) -> Result<Region, WireError> {
    let np = r.seq_len("region params", 4)?;
    let mut params = Vec::with_capacity(np);
    for _ in 0..np {
        params.push(read_var_id(r, var_limit, "region parameter")?);
    }
    // Min box: its own 8-byte dims prefix (dims may be 0).
    let nb = r.seq_len("region boxes", 8)?;
    let mut boxes = Vec::with_capacity(nb);
    for _ in 0..nb {
        boxes.push(read_param_box(r, np)?);
    }
    Ok(Region::from_boxes(params, boxes))
}

/// Writes a [`Domains`] map as sorted `(variable, interval)` pairs.
pub fn write_domains(w: &mut ByteWriter, domains: &Domains) {
    let pairs: Vec<_> = domains.iter().collect();
    w.usize(pairs.len());
    for (v, iv) in pairs {
        write_var_id(w, v);
        write_interval(w, iv);
    }
}

/// Reads a [`Domains`] map, validating variable ids against `var_limit`.
pub fn read_domains(r: &mut ByteReader<'_>, var_limit: usize) -> Result<Domains, WireError> {
    // Min entry: 4-byte var id + 16-byte interval.
    let n = r.seq_len("domain entries", 20)?;
    let mut d = Domains::new();
    for _ in 0..n {
        let v = read_var_id(r, var_limit, "domain variable")?;
        let iv = read_interval(r)?;
        d.set(v, iv);
    }
    Ok(d)
}

/// Writes [`SolverStats`] counters.
pub fn write_solver_stats(w: &mut ByteWriter, s: &SolverStats) {
    w.u64(s.queries);
    w.u64(s.sat);
    w.u64(s.unsat);
    w.u64(s.unknown);
    w.u64(s.nodes);
    w.u64(s.cache_hits);
    w.u64(s.cache_misses);
    w.u64(s.fleet_hits);
    w.u64(s.fleet_misses);
    w.u64(s.fleet_stores);
    w.u64(s.fleet_load_errors);
}

/// Reads [`SolverStats`] counters.
pub fn read_solver_stats(r: &mut ByteReader<'_>) -> Result<SolverStats, WireError> {
    Ok(SolverStats {
        queries: r.u64("stats queries")?,
        sat: r.u64("stats sat")?,
        unsat: r.u64("stats unsat")?,
        unknown: r.u64("stats unknown")?,
        nodes: r.u64("stats nodes")?,
        cache_hits: r.u64("stats cache hits")?,
        cache_misses: r.u64("stats cache misses")?,
        fleet_hits: r.u64("stats fleet hits")?,
        fleet_misses: r.u64("stats fleet misses")?,
        fleet_stores: r.u64("stats fleet stores")?,
        fleet_load_errors: r.u64("stats fleet load errors")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;
    use crate::TermPool;

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.bool(true);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("d").unwrap(), -42);
        assert!(r.bool("e").unwrap());
        assert_eq!(r.str("f").unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = ByteWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.u64("wide"),
            Err(WireError::Truncated { context: "wide" })
        ));
        // An empty reader fails on everything.
        let mut r = ByteReader::new(&[]);
        assert!(r.u8("x").is_err());
        assert!(r.str("s").is_err());
    }

    #[test]
    fn sequence_lengths_are_bounded_by_remaining_input() {
        // A huge declared count over a short input errors out before any
        // allocation proportional to the count could happen.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.seq_len("entries", 16),
            Err(WireError::BadLength {
                what: "entries",
                ..
            })
        ));
        // The same bound protects the composite decoders.
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            read_region(&mut r, 4),
            Err(WireError::BadLength { .. })
        ));
        // An honest count that fits the remaining bytes passes.
        let mut w = ByteWriter::new();
        w.u64(2);
        w.raw(&[0u8; 32]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.seq_len("entries", 16).unwrap(), 2);
    }

    #[test]
    fn bad_bool_and_value_tags_are_typed() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(
            r.bool("flag"),
            Err(WireError::BadTag {
                what: "bool",
                tag: 9
            })
        ));
        let mut r = ByteReader::new(&[7]);
        assert!(matches!(
            read_value(&mut r),
            Err(WireError::BadTag {
                what: "value",
                tag: 7
            })
        ));
    }

    #[test]
    fn ids_are_range_checked() {
        let mut w = ByteWriter::new();
        write_term_id(&mut w, TermId(5));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(read_term_id(&mut r, 6, "t").is_ok());
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            read_term_id(&mut r, 5, "t"),
            Err(WireError::IdOutOfRange { .. })
        ));
    }

    #[test]
    fn interval_rejects_inverted_bounds() {
        let mut w = ByteWriter::new();
        w.i64(10);
        w.i64(-10);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            read_interval(&mut r),
            Err(WireError::Invariant { .. })
        ));
    }

    #[test]
    fn model_roundtrips_sorted() {
        let mut pool = TermPool::new();
        let a = pool.var("a", Sort::Int);
        let b = pool.var("b", Sort::Int);
        let mut m = Model::new();
        m.set(b, 9i64);
        m.set(a, -1i64);
        let mut w = ByteWriter::new();
        write_model(&mut w, &m);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let m2 = read_model(&mut r, pool.var_count()).unwrap();
        assert_eq!(m, m2);
        // Encoding the same model twice is byte-identical.
        let mut w2 = ByteWriter::new();
        write_model(&mut w2, &m2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn region_roundtrips() {
        let mut pool = TermPool::new();
        let a = pool.var("a", Sort::Int);
        let b = pool.var("b", Sort::Int);
        let region = Region::from_boxes(
            vec![a, b],
            vec![
                ParamBox::new(vec![Interval::of(-10, 10), Interval::point(0)]),
                ParamBox::new(vec![Interval::point(7), Interval::of(-10, 10)]),
            ],
        );
        let mut w = ByteWriter::new();
        write_region(&mut w, &region);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let region2 = read_region(&mut r, pool.var_count()).unwrap();
        assert_eq!(region, region2);
        assert_eq!(region2.volume(), region.volume());
    }

    #[test]
    fn domains_roundtrip_stable() {
        let mut pool = TermPool::new();
        let a = pool.var("a", Sort::Int);
        let b = pool.var("b", Sort::Int);
        let mut d = Domains::new();
        d.bound(b, 0, 3).bound(a, -7, 7);
        let mut w = ByteWriter::new();
        write_domains(&mut w, &d);
        let bytes = w.into_bytes();
        let d2 = read_domains(&mut ByteReader::new(&bytes), pool.var_count()).unwrap();
        assert_eq!(d2.get(a), Some(Interval::of(-7, 7)));
        assert_eq!(d2.get(b), Some(Interval::of(0, 3)));
        let mut w2 = ByteWriter::new();
        write_domains(&mut w2, &d2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn solver_stats_roundtrip() {
        let s = SolverStats {
            queries: 10,
            sat: 4,
            unsat: 5,
            unknown: 1,
            nodes: 999,
            cache_hits: 3,
            cache_misses: 7,
            fleet_hits: 11,
            fleet_misses: 12,
            fleet_stores: 14,
            fleet_load_errors: 1,
        };
        let mut w = ByteWriter::new();
        write_solver_stats(&mut w, &s);
        let bytes = w.into_bytes();
        let s2 = read_solver_stats(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(s2.queries, 10);
        assert_eq!(s2.unsat, 5);
        assert_eq!(s2.cache_misses, 7);
        assert_eq!(s2.fleet_hits, 11);
        assert_eq!(s2.fleet_misses, 12);
        assert_eq!(s2.fleet_stores, 14);
        assert_eq!(s2.fleet_load_errors, 1);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"snapshot"), fnv1a(b"snapshot"));
    }
}

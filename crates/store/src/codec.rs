//! The one byte layout of the portable protocol state.
//!
//! A [`KeyState`] leaves the process two ways — to disk, inside a spool
//! snapshot, and to a peer, inside `ExportKeys`/`ImportKeys` frames — and
//! both go through this module, so the two cannot drift: the
//! [`spool`](crate::spool) keeps only its record and snapshot framing and
//! `apcache-wire` only its frame header, verbs and responses. Here: the
//! `put_*` writers over `Vec<u8>`, the bounds-checked [`Reader`], the
//! [`KeyCodec`] trait for application keys, and `put_`/`read_` pairs for
//! [`Interval`], [`ApproxSpec`], [`PolicySpec`], [`KeyMetrics`] and
//! [`KeyState`]. Conventions (precision metadata must travel cheaply):
//!
//! * all integers are fixed-width little-endian — no varints, so encode
//!   and decode are straight-line stores/loads;
//! * `f64`s travel as their IEEE-754 bit pattern (`to_bits`), making
//!   every round trip bit-identical — ±∞, signed zeros, and subnormals
//!   survive, and NaN payload bits are preserved where a field permits
//!   NaN at all;
//! * strings are `u32` length + UTF-8 bytes, sequences are `u32` count +
//!   elements, and both lengths are validated against the bytes actually
//!   remaining *before* any allocation, so a hostile length cannot
//!   balloon memory.
//!
//! **Compatibility promise:** these bytes are on disks and on the wire.
//! A layout change here is a spool `SNAPSHOT_VERSION` bump *and* a wire
//! protocol version bump; a golden-bytes test pins the current layout.

use std::fmt;

use apcache_core::policy::{ApproxSpec, GrowthLaw, Weighting};
use apcache_core::Interval;

use crate::metrics::KeyMetrics;
use crate::migrate::KeyState;
use crate::policy::PolicySpec;

/// Why a byte string is not a valid encoding. Decoding is *defensive*:
/// arbitrary input maps onto one of these variants — never a panic, never
/// an unbounded allocation. The spool surfaces it as
/// [`StoreError::Spool`](crate::StoreError::Spool), the wire layer as the
/// same-named `WireError` variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the announced content did (or a string or
    /// sequence claims more bytes than follow it).
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The value decoded fully but bytes were left over.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// A tag byte named no known variant.
    UnknownTag {
        /// What the decoder was reading (policy spec, option tag, …).
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A decoded field violated its invariant (NaN interval bound,
    /// inverted interval, a bool byte that is neither 0 nor 1, …).
    InvalidPayload(&'static str),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} more byte(s), had {available}")
            }
            DecodeError::TrailingBytes { count } => write!(f, "{count} trailing byte(s)"),
            DecodeError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag 0x{tag:02x}")
            }
            DecodeError::InvalidPayload(what) => write!(f, "invalid payload: {what}"),
            DecodeError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Byte primitives.
// ---------------------------------------------------------------------

/// A bounds-checked cursor over received or replayed bytes.
///
/// Every accessor returns [`DecodeError::Truncated`] instead of reading
/// past the end; nothing in this module panics on arbitrary input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the input is fully consumed (strict decoders reject
    /// trailing garbage so a desynchronized stream is caught immediately).
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(DecodeError::TrailingBytes { count }),
        }
    }

    /// Take the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { needed: n, available: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Next `f64`, decoded from its raw bit pattern (bit-identical).
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next bool; only the bytes 0 and 1 are accepted.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::InvalidPayload("bool byte is neither 0 nor 1")),
        }
    }

    /// Next length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Next sequence count, validated against the remaining bytes assuming
    /// each element occupies at least `min_elem_bytes` (must be ≥ 1). The
    /// check runs before any `Vec` is sized, so a forged count of four
    /// billion elements fails as [`DecodeError::Truncated`] instead of
    /// attempting a giant allocation.
    #[inline]
    pub fn seq(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        debug_assert!(min_elem_bytes >= 1);
        let count = self.u32()? as usize;
        let needed = count.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(DecodeError::Truncated { needed, available: self.remaining() });
        }
        Ok(count)
    }
}

/// Append a byte.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its raw bit pattern.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a bool as a 0/1 byte.
#[inline]
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

/// Append a length-prefixed UTF-8 string.
///
/// Strings longer than `u32::MAX` bytes are unrepresentable; such a key
/// would already have blown the frame cap, but the length is still
/// saturated defensively rather than silently truncating bytes.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_u32(buf, u32::try_from(v.len()).unwrap_or(u32::MAX));
    buf.extend_from_slice(v.as_bytes());
}

/// Append a sequence count.
#[inline]
pub fn put_seq(buf: &mut Vec<u8>, count: usize) {
    put_u32(buf, u32::try_from(count).unwrap_or(u32::MAX));
}

/// An application key type that can be persisted in the spool and cross
/// the wire — implement it once and both work.
///
/// The serving stack is generic over keys (`PrecisionStore<K>`); the byte
/// layers keep that by asking keys to encode themselves. Implementations
/// must be exact round trips: `decode_key(encode_key(k)) == k`.
///
/// Provided for `String`, `u64`, `u32`, and the protocol's own interned
/// [`Key`](apcache_core::Key).
pub trait KeyCodec: Sized {
    /// Smallest possible encoded size in bytes (used to validate sequence
    /// counts before allocation).
    const MIN_ENCODED_BYTES: usize;

    /// Append this key's encoded form.
    fn encode_key(&self, buf: &mut Vec<u8>);

    /// Decode one key.
    fn decode_key(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl KeyCodec for String {
    const MIN_ENCODED_BYTES: usize = 4;

    #[inline]
    fn encode_key(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }

    #[inline]
    fn decode_key(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.str()
    }
}

impl KeyCodec for u64 {
    const MIN_ENCODED_BYTES: usize = 8;

    #[inline]
    fn encode_key(&self, buf: &mut Vec<u8>) {
        put_u64(buf, *self);
    }

    #[inline]
    fn decode_key(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl KeyCodec for u32 {
    const MIN_ENCODED_BYTES: usize = 4;

    #[inline]
    fn encode_key(&self, buf: &mut Vec<u8>) {
        put_u32(buf, *self);
    }

    #[inline]
    fn decode_key(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u32()
    }
}

impl KeyCodec for apcache_core::Key {
    const MIN_ENCODED_BYTES: usize = 4;

    #[inline]
    fn encode_key(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.0);
    }

    #[inline]
    fn decode_key(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(apcache_core::Key(r.u32()?))
    }
}

// ---------------------------------------------------------------------
// Protocol-state codecs.
// ---------------------------------------------------------------------

/// Append an interval as its two bound bit patterns.
#[inline]
pub fn put_interval(buf: &mut Vec<u8>, iv: &Interval) {
    let (lo, hi) = iv.to_bits();
    put_u64(buf, lo);
    put_u64(buf, hi);
}

/// Decode an interval; NaN or inverted bounds are rejected.
#[inline]
pub fn read_interval(r: &mut Reader<'_>) -> Result<Interval, DecodeError> {
    let lo = r.u64()?;
    let hi = r.u64()?;
    Interval::from_bits(lo, hi)
        .map_err(|_| DecodeError::InvalidPayload("interval bounds (NaN or inverted)"))
}

/// Append an approximation spec (tag + variant fields).
pub fn put_spec(buf: &mut Vec<u8>, spec: &ApproxSpec) {
    match *spec {
        ApproxSpec::Constant(iv) => {
            put_u8(buf, 0);
            put_interval(buf, &iv);
        }
        ApproxSpec::Growing { center, base_width, coeff, exponent, t0 } => {
            put_u8(buf, 1);
            put_f64(buf, center);
            put_f64(buf, base_width);
            put_f64(buf, coeff);
            put_f64(buf, exponent);
            put_u64(buf, t0);
        }
        ApproxSpec::Drifting { lo0, hi0, rate_per_sec, t0 } => {
            put_u8(buf, 2);
            put_f64(buf, lo0);
            put_f64(buf, hi0);
            put_f64(buf, rate_per_sec);
            put_u64(buf, t0);
        }
    }
}

/// Decode an approximation spec.
pub fn read_spec(r: &mut Reader<'_>) -> Result<ApproxSpec, DecodeError> {
    match r.u8()? {
        0 => Ok(ApproxSpec::Constant(read_interval(r)?)),
        1 => Ok(ApproxSpec::Growing {
            center: r.f64()?,
            base_width: r.f64()?,
            coeff: r.f64()?,
            exponent: r.f64()?,
            t0: r.u64()?,
        }),
        2 => Ok(ApproxSpec::Drifting {
            lo0: r.f64()?,
            hi0: r.f64()?,
            rate_per_sec: r.f64()?,
            t0: r.u64()?,
        }),
        tag => Err(DecodeError::UnknownTag { context: "approximation spec", tag }),
    }
}

/// Append a policy recipe (tag + constructor parameters).
pub fn put_policy_spec(buf: &mut Vec<u8>, spec: &PolicySpec) {
    match *spec {
        PolicySpec::Adaptive => put_u8(buf, 0),
        PolicySpec::Uncentered => put_u8(buf, 1),
        PolicySpec::TimeVarying(law) => {
            put_u8(buf, 2);
            put_f64(buf, law.coeff());
            put_f64(buf, law.exponent());
        }
        PolicySpec::Drifting { rate_per_sec } => {
            put_u8(buf, 3);
            put_f64(buf, rate_per_sec);
        }
        PolicySpec::History { r, weighting } => {
            put_u8(buf, 4);
            put_u64(buf, r as u64);
            match weighting {
                Weighting::Uniform => put_u8(buf, 0),
                Weighting::Exponential { decay } => {
                    put_u8(buf, 1);
                    put_f64(buf, decay);
                }
            }
        }
        PolicySpec::Fixed { width } => {
            put_u8(buf, 5);
            put_f64(buf, width);
        }
        PolicySpec::StaleCounter => put_u8(buf, 6),
    }
}

/// Decode a policy recipe, validating its constructor parameters.
pub fn read_policy_spec(r: &mut Reader<'_>) -> Result<PolicySpec, DecodeError> {
    Ok(match r.u8()? {
        0 => PolicySpec::Adaptive,
        1 => PolicySpec::Uncentered,
        2 => {
            let (coeff, exponent) = (r.f64()?, r.f64()?);
            PolicySpec::TimeVarying(
                GrowthLaw::new(coeff, exponent)
                    .map_err(|_| DecodeError::InvalidPayload("growth law constants"))?,
            )
        }
        3 => PolicySpec::Drifting { rate_per_sec: r.f64()? },
        4 => {
            let window = usize::try_from(r.u64()?)
                .map_err(|_| DecodeError::InvalidPayload("history window overflows usize"))?;
            let weighting = match r.u8()? {
                0 => Weighting::Uniform,
                1 => {
                    let decay = r.f64()?;
                    if !(decay.is_finite() && 0.0 < decay && decay < 1.0) {
                        return Err(DecodeError::InvalidPayload("history decay outside (0, 1)"));
                    }
                    Weighting::Exponential { decay }
                }
                tag => return Err(DecodeError::UnknownTag { context: "history weighting", tag }),
            };
            PolicySpec::History { r: window, weighting }
        }
        5 => PolicySpec::Fixed { width: r.f64()? },
        6 => PolicySpec::StaleCounter,
        tag => return Err(DecodeError::UnknownTag { context: "policy spec", tag }),
    })
}

/// One encoded [`KeyMetrics`]: 5 × u64 counters + 2 × f64 costs.
pub const KEY_METRICS_BYTES: usize = 7 * 8;

/// Append one key's serving counters.
pub fn put_key_metrics(buf: &mut Vec<u8>, m: &KeyMetrics) {
    put_u64(buf, m.reads);
    put_u64(buf, m.cache_hits);
    put_u64(buf, m.writes);
    put_u64(buf, m.vr_count);
    put_u64(buf, m.qr_count);
    put_f64(buf, m.vr_cost);
    put_f64(buf, m.qr_cost);
}

/// Decode one key's serving counters.
pub fn read_key_metrics(r: &mut Reader<'_>) -> Result<KeyMetrics, DecodeError> {
    Ok(KeyMetrics {
        reads: r.u64()?,
        cache_hits: r.u64()?,
        writes: r.u64()?,
        vr_count: r.u64()?,
        qr_count: r.u64()?,
        vr_cost: r.f64()?,
        qr_cost: r.f64()?,
    })
}

/// Append one key's complete protocol state.
pub fn put_key_state<K: KeyCodec>(buf: &mut Vec<u8>, state: &KeyState<K>) {
    state.key.encode_key(buf);
    put_f64(buf, state.value);
    put_policy_spec(buf, &state.spec);
    put_seq(buf, state.policy_state.len());
    for word in &state.policy_state {
        put_f64(buf, *word);
    }
    put_spec(buf, &state.source_spec);
    match &state.cached {
        None => put_u8(buf, 0),
        Some((spec, internal_width)) => {
            put_u8(buf, 1);
            put_spec(buf, spec);
            put_f64(buf, *internal_width);
        }
    }
    match &state.metrics {
        None => put_u8(buf, 0),
        Some(metrics) => {
            put_u8(buf, 1);
            put_key_metrics(buf, metrics);
        }
    }
}

/// Decode one key's complete protocol state. The fields are checked one
/// by one; that the approximation contains the value is checked where the
/// state is installed ([`PrecisionStore::import_key`]).
///
/// [`PrecisionStore::import_key`]: crate::PrecisionStore::import_key
pub fn read_key_state<K: KeyCodec>(r: &mut Reader<'_>) -> Result<KeyState<K>, DecodeError> {
    let key = K::decode_key(r)?;
    let value = r.f64()?;
    let spec = read_policy_spec(r)?;
    let n = r.seq(8)?;
    let mut policy_state = Vec::with_capacity(n);
    for _ in 0..n {
        policy_state.push(r.f64()?);
    }
    let source_spec = read_spec(r)?;
    let cached = match r.u8()? {
        0 => None,
        1 => Some((read_spec(r)?, r.f64()?)),
        tag => return Err(DecodeError::UnknownTag { context: "cache residency", tag }),
    };
    let metrics = match r.u8()? {
        0 => None,
        1 => Some(read_key_metrics(r)?),
        tag => return Err(DecodeError::UnknownTag { context: "key metrics option", tag }),
    };
    Ok(KeyState { key, value, spec, policy_state, source_spec, cached, metrics })
}

/// Smallest possible encoded [`KeyState`], for sequence-count validation:
/// key + value + spec tag + empty state seq + smallest source spec
/// (Constant = tag + interval) + two `None` option tags.
const fn min_key_state_bytes(min_key: usize) -> usize {
    min_key + 8 + 1 + 4 + (1 + 16) + 1 + 1
}

/// Append a counted list of key states.
pub fn put_key_states<K: KeyCodec>(buf: &mut Vec<u8>, states: &[KeyState<K>]) {
    put_seq(buf, states.len());
    for state in states {
        put_key_state(buf, state);
    }
}

/// Decode a counted list of key states; the count is validated against
/// the smallest possible state before anything is allocated.
pub fn read_key_states<K: KeyCodec>(r: &mut Reader<'_>) -> Result<Vec<KeyState<K>>, DecodeError> {
    let n = r.seq(min_key_state_bytes(K::MIN_ENCODED_BYTES))?;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        states.push(read_key_state(r)?);
    }
    Ok(states)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A state touching every optional field and three spec families, and
    /// the bytes it must keep encoding to — on their own here, inside a
    /// snapshot image (`spool` tests), inside an `Exported` frame
    /// (`apcache-wire`).
    pub(crate) fn golden_state() -> KeyState<String> {
        KeyState {
            key: "sensor-9".to_string(),
            value: -0.0,
            spec: PolicySpec::History { r: 3, weighting: Weighting::Exponential { decay: 0.5 } },
            policy_state: vec![12.5, f64::INFINITY, -3.0],
            source_spec: ApproxSpec::Drifting { lo0: 1.0, hi0: 2.0, rate_per_sec: 0.25, t0: 9 },
            cached: Some((
                ApproxSpec::Growing {
                    center: 1.5,
                    base_width: 1.0,
                    coeff: 0.1,
                    exponent: 0.5,
                    t0: 77,
                },
                30.0,
            )),
            metrics: Some(KeyMetrics {
                reads: 4,
                cache_hits: 3,
                writes: 2,
                vr_count: 1,
                qr_count: 1,
                vr_cost: 1.5,
                qr_cost: 2.5,
            }),
        }
    }

    pub(crate) const GOLDEN_HEX: &str = "0800000073656e736f722d39000000000000008004030000000000000001000000000000e03f030000000000000000002940000000000000f07f00000000000008c002000000000000f03f0000000000000040000000000000d03f09000000000000000101000000000000f83f000000000000f03f9a9999999999b93f000000000000e03f4d000000000000000000000000003e400104000000000000000300000000000000020000000000000001000000000000000100000000000000000000000000f83f0000000000000440";

    pub(crate) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn key_state_encodes_to_the_golden_bytes_and_back() {
        let state = golden_state();
        let mut buf = Vec::new();
        put_key_state(&mut buf, &state);
        assert_eq!(hex(&buf), GOLDEN_HEX);
        let mut r = Reader::new(&buf);
        let back: KeyState<String> = read_key_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, state);
        assert_eq!(back.value.to_bits(), state.value.to_bits(), "-0.0 preserved exactly");
        // Every strict prefix runs out of bytes: an error, never a panic.
        for cut in 0..buf.len() {
            let cut_short = read_key_state::<String>(&mut Reader::new(&buf[..cut]));
            assert!(matches!(cut_short, Err(DecodeError::Truncated { .. })), "cut={cut}");
        }
    }

    #[test]
    fn policy_specs_round_trip() {
        let specs = [
            PolicySpec::Adaptive,
            PolicySpec::Uncentered,
            PolicySpec::TimeVarying(GrowthLaw::new(2.0, 0.5).unwrap()),
            PolicySpec::Drifting { rate_per_sec: 1.25 },
            PolicySpec::History { r: 5, weighting: Weighting::Uniform },
            PolicySpec::History { r: 3, weighting: Weighting::Exponential { decay: 0.5 } },
            PolicySpec::Fixed { width: 7.5 },
            PolicySpec::StaleCounter,
        ];
        for spec in specs {
            let mut buf = Vec::new();
            put_policy_spec(&mut buf, &spec);
            let mut r = Reader::new(&buf);
            assert_eq!(read_policy_spec(&mut r).unwrap(), spec);
            r.finish().unwrap();
        }
    }

    #[test]
    fn integer_round_trips() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xA7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xA7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn f64_round_trip_is_bit_identical() {
        let specials =
            [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE, 5e-324];
        for v in specials {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let back = Reader::new(&buf).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "bits changed for {v}");
        }
    }

    #[test]
    fn strings_and_keys_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "sensor/室内/07");
        "tail".to_string().encode_key(&mut buf);
        7u64.encode_key(&mut buf);
        9u32.encode_key(&mut buf);
        apcache_core::Key(42).encode_key(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "sensor/室内/07");
        assert_eq!(String::decode_key(&mut r).unwrap(), "tail");
        assert_eq!(u64::decode_key(&mut r).unwrap(), 7);
        assert_eq!(u32::decode_key(&mut r).unwrap(), 9);
        assert_eq!(apcache_core::Key::decode_key(&mut r).unwrap(), apcache_core::Key(42));
        r.finish().unwrap();
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A string claiming u32::MAX bytes followed by nothing.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(Reader::new(&buf).str(), Err(DecodeError::Truncated { .. })));
        // A sequence claiming 2^32-1 eight-byte elements.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u64(&mut buf, 1);
        assert!(matches!(Reader::new(&buf).seq(8), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn invalid_bytes_are_rejected() {
        assert!(matches!(Reader::new(&[7]).bool(), Err(DecodeError::InvalidPayload(_))));
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
        assert!(matches!(Reader::new(&buf).str(), Err(DecodeError::InvalidUtf8)));
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let buf = [1, 2];
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { count: 1 }));
    }
}

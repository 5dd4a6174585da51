//! Durable spool integration: the write-record and snapshot codecs that
//! let a [`PrecisionStore`](crate::PrecisionStore) survive a restart with
//! its converged widths intact.
//!
//! The `apcache-spool` crate provides the segmented log; this module
//! defines *what* goes into it:
//!
//! * **Write records** — one per successful state-changing step
//!   ([`REC_WRITE`], [`REC_INSERT`], [`REC_WIDEN`], [`REC_REFRESH`]),
//!   logged *after* the in-memory apply succeeds so replay never sees a
//!   record the live store rejected. Read *hits* are not logged — they
//!   change nothing but hit counters — but a refreshing read (or an
//!   aggregate fetch) shrinks the policy width, so it is durable as a
//!   [`REC_REFRESH`]: replay re-runs the exact-fetch against the replayed
//!   source and lands on bit-identical widths, answers, and escapes.
//! * **Snapshots** — the full store image (tuning parameters, RNG state,
//!   and every key's [`KeyState`] in interned-id order, so recovery
//!   reassigns the same dense ids and the eviction/planner behavior is
//!   unchanged). Taking a snapshot lets the spool delete every earlier
//!   segment.
//!
//! Only the record and snapshot *framing* is defined here; keys, policy
//! recipes and each key's [`KeyState`] are written and read through
//! [`crate::codec`], the same functions the wire layer calls, so a state
//! is the same bytes on disk and in an `ExportKeys` frame.

use apcache_core::cost::CostModel;
use apcache_core::TimeMs;
use apcache_spool::{Record, Spool, SpoolConfig, SpoolError, SpoolIo};

use crate::codec::{
    put_bool, put_f64, put_key_states, put_policy_spec, put_u64, put_u8, read_key_states,
    read_policy_spec, DecodeError, KeyCodec, Reader,
};
use crate::error::StoreError;
use crate::migrate::KeyState;
use crate::policy::{InitialWidth, PolicySpec};

/// Record kind: one applied [`write`](crate::PrecisionStore::write)
/// (or one item of a `write_batch`).
pub const REC_WRITE: u8 = 1;
/// Record kind: one post-build [`insert`](crate::PrecisionStore::insert).
pub const REC_INSERT: u8 = 2;
/// Record kind: one applied
/// [`widen_cached`](crate::PrecisionStore::widen_cached) degradation.
pub const REC_WIDEN: u8 = 3;
/// Record kind: one query-initiated refresh — a
/// [`read`](crate::PrecisionStore::read) miss or an aggregate fetch. The
/// fetched value is recomputed from the replayed source at recovery, so
/// only the key, a "counted as a read" flag, and the timestamp are
/// logged; replaying it re-runs the exact-fetch and the policy's width
/// shrink, keeping post-recovery widths bit-identical.
pub const REC_REFRESH: u8 = 4;

/// Snapshot codec version; bumped on any layout change.
const SNAPSHOT_VERSION: u8 = 1;

impl From<SpoolError> for StoreError {
    fn from(e: SpoolError) -> Self {
        StoreError::Spool(e.to_string())
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Spool(format!("malformed spool record: {e}"))
    }
}

// ---------------------------------------------------------------------
// Snapshot image.
// ---------------------------------------------------------------------

/// The full store image a snapshot carries: every tuning parameter the
/// builder accepts, the RNG stream position, and each key's protocol
/// state in interned-id order (so recovery reassigns identical dense ids
/// and eviction/planner behavior is unchanged).
#[derive(Debug, Clone)]
pub(crate) struct SnapshotImage<K> {
    pub cost: CostModel,
    pub alpha: f64,
    pub gamma0: f64,
    pub gamma1: f64,
    pub capacity: Option<usize>,
    pub initial_width: InitialWidth,
    pub default_policy: PolicySpec,
    pub rng_words: [u64; 5],
    pub keys: Vec<KeyState<K>>,
}

pub(crate) fn encode_snapshot<K: KeyCodec>(image: &SnapshotImage<K>, buf: &mut Vec<u8>) {
    put_u8(buf, SNAPSHOT_VERSION);
    put_f64(buf, image.cost.c_vr());
    put_f64(buf, image.cost.c_qr());
    put_f64(buf, image.alpha);
    put_f64(buf, image.gamma0);
    put_f64(buf, image.gamma1);
    match image.capacity {
        None => put_u8(buf, 0),
        Some(k) => {
            put_u8(buf, 1);
            put_u64(buf, k as u64);
        }
    }
    match image.initial_width {
        InitialWidth::Fixed(w) => {
            put_u8(buf, 0);
            put_f64(buf, w);
        }
        InitialWidth::Relative { frac, floor } => {
            put_u8(buf, 1);
            put_f64(buf, frac);
            put_f64(buf, floor);
        }
    }
    put_policy_spec(buf, &image.default_policy);
    for word in image.rng_words {
        put_u64(buf, word);
    }
    put_key_states(buf, &image.keys);
}

pub(crate) fn decode_snapshot<K: KeyCodec>(bytes: &[u8]) -> Result<SnapshotImage<K>, StoreError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != SNAPSHOT_VERSION {
        return Err(DecodeError::InvalidPayload("unsupported snapshot version").into());
    }
    let c_vr = r.f64()?;
    let c_qr = r.f64()?;
    let cost = CostModel::new(c_vr, c_qr)
        .map_err(|_| DecodeError::InvalidPayload("cost model parameters"))?;
    let alpha = r.f64()?;
    let gamma0 = r.f64()?;
    let gamma1 = r.f64()?;
    let capacity = match r.u8()? {
        0 => None,
        1 => Some(
            usize::try_from(r.u64()?)
                .map_err(|_| DecodeError::InvalidPayload("cache capacity overflows usize"))?,
        ),
        tag => return Err(DecodeError::UnknownTag { context: "capacity option", tag }.into()),
    };
    let initial_width = match r.u8()? {
        0 => InitialWidth::Fixed(r.f64()?),
        1 => InitialWidth::Relative { frac: r.f64()?, floor: r.f64()? },
        tag => return Err(DecodeError::UnknownTag { context: "initial width", tag }.into()),
    };
    let default_policy = read_policy_spec(&mut r)?;
    let mut rng_words = [0u64; 5];
    for word in &mut rng_words {
        *word = r.u64()?;
    }
    let keys = read_key_states(&mut r)?;
    r.finish()?;
    Ok(SnapshotImage {
        cost,
        alpha,
        gamma0,
        gamma1,
        capacity,
        initial_width,
        default_policy,
        rng_words,
        keys,
    })
}

// ---------------------------------------------------------------------
// Log records.
// ---------------------------------------------------------------------

/// One decoded log record: a mutation to re-apply through the store's
/// normal verbs during recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Mutation<K> {
    Write { key: K, value: f64, now: TimeMs },
    Insert { key: K, value: f64, spec: Option<PolicySpec>, now: TimeMs },
    Widen { key: K, width: f64, now: TimeMs },
    Refresh { key: K, counted_as_read: bool, now: TimeMs },
}

pub(crate) fn decode_mutation<K: KeyCodec>(record: &Record) -> Result<Mutation<K>, StoreError> {
    let mut r = Reader::new(&record.payload);
    let mutation = match record.kind {
        REC_WRITE => {
            Mutation::Write { key: K::decode_key(&mut r)?, value: r.f64()?, now: r.u64()? }
        }
        REC_INSERT => {
            let key = K::decode_key(&mut r)?;
            let value = r.f64()?;
            let spec = match r.u8()? {
                0 => None,
                1 => Some(read_policy_spec(&mut r)?),
                tag => return Err(DecodeError::UnknownTag { context: "insert policy", tag }.into()),
            };
            Mutation::Insert { key, value, spec, now: r.u64()? }
        }
        REC_WIDEN => {
            Mutation::Widen { key: K::decode_key(&mut r)?, width: r.f64()?, now: r.u64()? }
        }
        REC_REFRESH => Mutation::Refresh {
            key: K::decode_key(&mut r)?,
            counted_as_read: r.bool()?,
            now: r.u64()?,
        },
        tag => return Err(DecodeError::UnknownTag { context: "record kind", tag }.into()),
    };
    r.finish()?;
    Ok(mutation)
}

// ---------------------------------------------------------------------
// The store's handle on an open spool.
// ---------------------------------------------------------------------

/// An open spool attached to a store: the segmented log plus the key
/// encoder captured when the (`KeyCodec`-bounded) attach ran, so the hot
/// mutation paths need no extra trait bounds.
pub(crate) struct StoreSpool<K> {
    spool: Spool<Box<dyn SpoolIo>>,
    encode: fn(&K, &mut Vec<u8>),
    encode_snapshot: fn(&SnapshotImage<K>, &mut Vec<u8>),
    buf: Vec<u8>,
}

impl<K> std::fmt::Debug for StoreSpool<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSpool").field("spool", &self.spool).finish_non_exhaustive()
    }
}

impl<K> StoreSpool<K> {
    pub(crate) fn open(
        io: Box<dyn SpoolIo>,
        dir: &str,
        cfg: SpoolConfig,
        encode: fn(&K, &mut Vec<u8>),
        encode_snapshot: fn(&SnapshotImage<K>, &mut Vec<u8>),
    ) -> Result<(Self, apcache_spool::Recovery), StoreError> {
        let (spool, recovery) = Spool::open(io, dir, cfg)?;
        Ok((StoreSpool { spool, encode, encode_snapshot, buf: Vec::new() }, recovery))
    }

    /// Append one record of `kind`: the key, then whatever `fill` writes
    /// after it, through the reused scratch buffer. The `log_*` verbs
    /// below are the only encoders of their record kinds.
    fn append(
        &mut self,
        kind: u8,
        key: &K,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), StoreError> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        (self.encode)(key, &mut buf);
        fill(&mut buf);
        let result = self.spool.append(kind, &buf);
        self.buf = buf;
        Ok(result?)
    }

    pub(crate) fn log_write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<(), StoreError> {
        self.append(REC_WRITE, key, |buf| {
            put_f64(buf, value);
            put_u64(buf, now);
        })
    }

    pub(crate) fn log_insert(
        &mut self,
        key: &K,
        value: f64,
        spec: Option<&PolicySpec>,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        self.append(REC_INSERT, key, |buf| {
            put_f64(buf, value);
            match spec {
                None => put_u8(buf, 0),
                Some(spec) => {
                    put_u8(buf, 1);
                    put_policy_spec(buf, spec);
                }
            }
            put_u64(buf, now);
        })
    }

    pub(crate) fn log_widen(&mut self, key: &K, width: f64, now: TimeMs) -> Result<(), StoreError> {
        self.append(REC_WIDEN, key, |buf| {
            put_f64(buf, width);
            put_u64(buf, now);
        })
    }

    pub(crate) fn log_refresh(
        &mut self,
        key: &K,
        counted_as_read: bool,
        now: TimeMs,
    ) -> Result<(), StoreError> {
        self.append(REC_REFRESH, key, |buf| {
            put_bool(buf, counted_as_read);
            put_u64(buf, now);
        })
    }

    pub(crate) fn write_snapshot_image(
        &mut self,
        image: &SnapshotImage<K>,
    ) -> Result<(), StoreError> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        (self.encode_snapshot)(image, &mut buf);
        let result = self.spool.snapshot(&buf);
        self.buf = buf;
        Ok(result?)
    }

    pub(crate) fn dir(&self) -> &str {
        self.spool.dir()
    }

    pub(crate) fn into_io(self) -> Box<dyn SpoolIo> {
        self.spool.into_io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::{golden_state, hex, GOLDEN_HEX};
    use apcache_core::Rng;
    use apcache_spool::MemIo;

    fn golden_image() -> SnapshotImage<String> {
        SnapshotImage {
            cost: CostModel::new(1.0, 2.0).unwrap(),
            alpha: 1.0,
            gamma0: 0.5,
            gamma1: f64::INFINITY,
            capacity: Some(128),
            initial_width: InitialWidth::Relative { frac: 0.1, floor: 1.0 },
            default_policy: PolicySpec::Adaptive,
            rng_words: Rng::seed_from_u64(7).state_words(),
            keys: vec![golden_state()],
        }
    }

    /// One record of each `REC_*` kind, as `StoreSpool::log_*` wrote it
    /// and a reopened spool replays it.
    fn one_record_of_each_kind() -> Vec<(Record, Mutation<String>)> {
        let (mut ss, _) = StoreSpool::<String>::open(
            Box::new(MemIo::new()),
            "d",
            SpoolConfig::default(),
            <String as KeyCodec>::encode_key,
            encode_snapshot::<String>,
        )
        .unwrap();
        let key = "k".to_string();
        let spec = PolicySpec::Fixed { width: 2.0 };
        ss.log_write(&key, 10.5, 1_000).unwrap();
        ss.log_insert(&key, 3.0, Some(&spec), 5).unwrap();
        ss.log_widen(&key, 44.0, 9).unwrap();
        ss.log_refresh(&key, true, 12).unwrap();
        let (_, replayed) = Spool::open(ss.into_io(), "d", SpoolConfig::default()).unwrap();
        let expect = [
            Mutation::Write { key: key.clone(), value: 10.5, now: 1_000 },
            Mutation::Insert { key: key.clone(), value: 3.0, spec: Some(spec), now: 5 },
            Mutation::Widen { key: key.clone(), width: 44.0, now: 9 },
            Mutation::Refresh { key, counted_as_read: true, now: 12 },
        ];
        assert_eq!(replayed.records.len(), expect.len());
        replayed.records.into_iter().zip(expect).collect()
    }

    #[test]
    fn mutations_round_trip_through_records() {
        for (record, expect) in one_record_of_each_kind() {
            assert_eq!(decode_mutation::<String>(&record).unwrap(), expect);
        }
        let junk = Record { kind: 200, payload: Vec::new() };
        assert!(matches!(decode_mutation::<String>(&junk), Err(StoreError::Spool(_))));
    }

    #[test]
    fn snapshot_image_round_trips_around_the_golden_key_state() {
        let image = golden_image();
        let mut buf = Vec::new();
        encode_snapshot(&image, &mut buf);
        // The key's state is the shared codec's bytes, verbatim, at the
        // image's tail (after the u32 key count).
        assert!(hex(&buf).ends_with(&format!("01000000{GOLDEN_HEX}")));
        let back: SnapshotImage<String> = decode_snapshot(&buf).unwrap();
        assert_eq!(back.cost.c_vr(), 1.0);
        assert_eq!(back.cost.c_qr(), 2.0);
        assert_eq!(back.capacity, Some(128));
        assert_eq!(back.rng_words, image.rng_words);
        assert_eq!(back.keys, image.keys);
        let mut extra = buf.clone();
        extra.push(0);
        assert!(matches!(decode_snapshot::<String>(&extra), Err(StoreError::Spool(_))));
    }

    /// Every prefix and every single-byte flip of `bytes`: `decode` must
    /// return a value or `StoreError::Spool`, never panic; every strict
    /// prefix must be an error.
    fn sweep<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, StoreError>) {
        for cut in 0..bytes.len() {
            assert!(matches!(decode(&bytes[..cut]), Err(StoreError::Spool(_))), "cut={cut}");
        }
        let mut flipped = bytes.to_vec();
        for i in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[i] ^= mask;
                if let Err(e) = decode(&flipped) {
                    assert!(matches!(e, StoreError::Spool(_)), "byte {i} ^ {mask:#x}: {e}");
                }
                flipped[i] ^= mask;
            }
        }
    }

    #[test]
    fn damaged_snapshots_and_records_are_errors_never_panics() {
        let mut image = Vec::new();
        encode_snapshot(&golden_image(), &mut image);
        sweep(&image, decode_snapshot::<String>);
        for (record, _) in one_record_of_each_kind() {
            sweep(&record.payload, |payload| {
                decode_mutation::<String>(&Record { kind: record.kind, payload: payload.to_vec() })
            });
        }
    }

    #[test]
    fn forged_snapshot_key_count_fails_before_allocating() {
        let mut image = Vec::new();
        encode_snapshot(&golden_image(), &mut image);
        // The count sits just before the one 206-byte state. Six states
        // need at least 6 × 36 bytes; checked at one byte per element the
        // count would pass and size a `Vec` for six states.
        let count_at = image.len() - GOLDEN_HEX.len() / 2 - 4;
        image[count_at..count_at + 4].copy_from_slice(&6u32.to_le_bytes());
        let err = decode_snapshot::<String>(&image).unwrap_err();
        assert!(err.to_string().contains("needed 216 more byte(s), had 206"), "{err}");
    }
}
